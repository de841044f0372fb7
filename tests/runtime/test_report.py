"""RunReport: one schema, every backend; ratios through one code path."""

from __future__ import annotations

import json

import pytest

from repro.metrics import report_to_json
from repro.runtime import PhaseTrace, RunReport


def make_report(**overrides) -> RunReport:
    defaults = dict(
        backend="sim",
        scheduler_name="rtsads",
        num_workers=4,
        seed=1,
        total_tasks=100,
        guaranteed=90,
        completed=88,
        deadline_hits=88,
        completed_late=0,
        expired=12,
        failed=0,
        guaranteed_violations=0,
        reschedules=0,
        workers_lost=0,
        makespan=5000.0,
        wall_seconds=5.0,
    )
    defaults.update(overrides)
    return RunReport(**defaults)


def make_phase(index: int = 0) -> PhaseTrace:
    return PhaseTrace(
        index=index,
        start=0.0,
        quantum=10.0,
        time_used=2.0,
        batch_size=5,
        scheduled=3,
        expired_before=1,
        dead_end=False,
        complete=True,
        max_depth=3,
        processors_touched=2,
        vertices_generated=12,
        delivered=3,
    )


class TestRatios:
    def test_hit_and_guarantee_ratios(self):
        report = make_report(total_tasks=200, guaranteed=150, deadline_hits=140)
        assert report.hit_ratio == pytest.approx(0.70)
        assert report.hit_percent == pytest.approx(70.0)
        assert report.guarantee_ratio == pytest.approx(0.75)

    def test_zero_tasks_yield_zero_not_a_crash(self):
        report = make_report(total_tasks=0, guaranteed=0, deadline_hits=0)
        assert report.hit_ratio == 0.0
        assert report.guarantee_ratio == 0.0


class TestExtras:
    def test_sim_extras_are_reachable_and_cluster_ones_refuse(self):
        report = make_report(
            backend="sim",
            extras={"trace": object(), "events_dispatched": 7},
        )
        assert report.events_dispatched == 7
        assert report.trace is not None
        with pytest.raises(AttributeError, match="binds no port"):
            report.port

    def test_cluster_extras_are_reachable_and_sim_ones_refuse(self):
        report = make_report(backend="cluster", extras={"port": 45000})
        assert report.port == 45000
        assert report.events_dispatched == 0  # harmless default
        with pytest.raises(AttributeError, match="no simulation trace"):
            report.trace


class TestSchema:
    def test_as_dict_schema_is_backend_invariant(self):
        """Keys AND value types match across backends — the contract the
        CI backend-matrix job enforces on real runs."""
        sim = make_report(
            backend="sim",
            phases=[make_phase()],
            extras={"trace": object(), "events_dispatched": 3},
        )
        cluster = make_report(
            backend="cluster",
            phases=[make_phase()],
            extras={"port": 45000},
        )
        sim_dict, cluster_dict = sim.as_dict(), cluster.as_dict()
        assert sorted(sim_dict) == sorted(cluster_dict)
        for key in sim_dict:
            assert type(sim_dict[key]) is type(cluster_dict[key]), key

    def test_extras_never_leak_into_the_export(self):
        report = make_report(extras={"port": 1, "trace": object()})
        exported = report.as_dict()
        assert "extras" not in exported
        assert "port" not in exported
        assert "trace" not in exported

    def test_report_to_json_round_trips(self):
        report = make_report(phases=[make_phase()])
        document = json.loads(report_to_json(report))
        assert document["num_phases"] == 1
        assert document["phases"][0]["delivered"] == 3
        assert document["hit_ratio"] == pytest.approx(report.hit_ratio)


class TestPresentation:
    def test_render_prints_both_ratios_and_the_backend(self):
        text = make_report(
            backend="cluster", total_tasks=100, guaranteed=90, deadline_hits=88
        ).render()
        assert "guarantee ratio:  0.900" in text
        assert "compliance ratio: 0.880" in text
        assert "cluster backend" in text

    def test_summary_is_one_line(self):
        summary = make_report(phases=[make_phase()]).summary()
        assert "\n" not in summary
        assert "rtsads" in summary


class TestCheckBalance:
    def test_a_drained_batch_run_balances(self):
        make_report().check_balance()

    def test_an_unbooked_task_is_named_with_the_counts(self):
        with pytest.raises(ValueError) as caught:
            make_report(expired=11).check_balance()
        message = str(caught.value)
        assert "completed + expired + failed + open == total_tasks" in message
        assert "(99 != 100)" in message

    def test_hits_and_late_must_add_up_to_completed(self):
        with pytest.raises(ValueError, match="completed_late"):
            make_report(deadline_hits=80).check_balance()

    def test_the_service_form(self):
        extras = dict(
            submitted=100, accepted=95, rejected=5, shed=2, surrendered=3,
            open=0,
        )
        balanced = make_report(
            backend="service", completed=80, deadline_hits=80, expired=10,
            failed=10, extras=extras,
        )
        balanced.check_balance()
        # A report taken mid-drain may leave accepted work open...
        mid_drain = make_report(
            backend="service", completed=78, deadline_hits=78, expired=10,
            failed=10, extras=dict(extras, open=2),
        )
        mid_drain.check_balance()
        # ...but every refusal must be booked as failed.
        with pytest.raises(ValueError, match="rejected \\+ shed"):
            make_report(
                backend="service", completed=81, deadline_hits=81,
                expired=10, failed=9, extras=extras,
            ).check_balance()
        with pytest.raises(ValueError, match="accepted \\+ rejected"):
            make_report(
                backend="service", completed=80, deadline_hits=80,
                expired=10, failed=10, extras=dict(extras, accepted=94),
            ).check_balance()
