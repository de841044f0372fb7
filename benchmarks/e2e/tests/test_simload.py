"""Simulator workloads: repeatable fingerprints, checks that can fail."""

from types import SimpleNamespace

import simload


def test_fingerprints_repeat_across_two_in_process_executions():
    first = simload.run_section("figs-quick", 1998, None, smoke=True)
    again = simload.run_section("figs-quick", 1998, None, smoke=True)
    other = simload.run_section("figs-quick", 1999, None, smoke=True)
    assert first.failed == again.failed == 0
    assert first.attempted > 0 and first.tasks > 0
    assert first.fingerprints == again.fingerprints
    assert first.fingerprints.keys() == other.fingerprints.keys()
    assert first.fingerprints != other.fingerprints


def test_a_pass_never_reuses_an_earlier_passes_seeds():
    # Quick-scale cells run seeds base..base+2; consecutive passes differ
    # by the stride, so a (config, seed) memo gains nothing between passes.
    assert simload.PASS_SEED_STRIDE > 3


def cell(**overrides):
    fields = dict(
        hit_percents=[50.0, 60.0],
        makespans=[10.0, 11.0],
        scheduling_times=[1.0, 1.5],
        dead_end_rates=[0.0, 0.0],
        mean_depths=[2.0, 2.0],
        scheduled_but_missed=0,
        regrets=[
            {"verdict": "infeasible", "deadline_hits": 5, "hits_upper_bound": 8},
            {"verdict": "infeasible", "deadline_hits": 6, "hits_upper_bound": 8},
        ],
        config=SimpleNamespace(num_transactions=10),
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_check_unit_counts_theorem_and_oracle_violations():
    good = simload.check_unit(SimpleNamespace(cells={("rtsads", 2): cell()}))
    assert (good.repetitions, good.failed, good.tasks) == (2, 0, 20)
    missed = simload.check_unit(
        SimpleNamespace(cells={("rtsads", 2): cell(scheduled_but_missed=1)})
    )
    assert missed.failed == 2
    beaten = simload.check_unit(
        SimpleNamespace(
            cells={
                ("rtsads", 2): cell(
                    regrets=[
                        {"verdict": "infeasible", "deadline_hits": 9,
                         "hits_upper_bound": 8},
                        {"verdict": "unknown", "deadline_hits": 9,
                         "hits_upper_bound": 0},
                    ]
                )
            }
        )
    )
    assert beaten.failed == 1
    assert good.fingerprint != simload.check_unit(
        SimpleNamespace(cells={("rtsads", 2): cell(makespans=[10.0, 11.5])})
    ).fingerprint


def test_mismatched_fingerprints_ignores_passes_the_file_does_not_know():
    run = simload.SimRun(fingerprints={"0:a": "x", "0:b": "y", "3:a": "z"})
    assert simload.mismatched_fingerprints(run, {"0:a": "x", "0:b": "other"}) == [
        "0:b"
    ]
