"""Tests for the extension experiments."""

from dataclasses import replace

import pytest

from repro.experiments import (
    ExperimentConfig,
    ablation_interconnect,
    extension_failures,
    extension_load_sweep,
    extension_reclaiming,
    extension_write_mix,
)

TINY = ExperimentConfig.quick(num_transactions=40, runs=2, num_processors=4)


class TestReclaiming:
    def test_rows_and_invariants(self):
        result = extension_reclaiming(TINY)
        labels = [row[0] for row in result.rows]
        assert "worst-case (paper)" in labels
        assert any("first-match" in label for label in labels)
        rows = {row[0]: row for row in result.rows}
        assert rows["worst-case (paper)"][2] == 0.0
        assert rows["scaled 50%"][2] > 0.0
        # Early completion never reduces compliance.
        assert rows["scaled 50%"][1] >= rows["worst-case (paper)"][1] - 1e-9

    def test_render(self):
        text = extension_reclaiming(TINY).render()
        assert "Resource reclaiming" in text
        assert "reclaimed time" in text


class TestLoadSweep:
    def test_structure(self):
        result = extension_load_sweep(TINY, load_factors=(0.5, 1.5))
        assert [row[0] for row in result.rows] == [0.5, 1.5]
        assert len(result.rows[0]) == 3  # load + two schedulers

    def test_compliance_degrades_with_load(self):
        result = extension_load_sweep(
            replace(TINY, scheduler="rtsads"), load_factors=(0.3, 2.0)
        )
        light, heavy = result.rows[0][1], result.rows[1][1]
        assert light > heavy


class TestInterconnect:
    def test_structure_and_render(self):
        result = ablation_interconnect(TINY)
        assert len(result.rows) == 2
        labels = [row[0] for row in result.rows]
        assert any("wormhole" in label for label in labels)
        assert any("mesh" in label for label in labels)
        assert "Interconnect" in result.render()

    def test_custom_scheduler_list(self):
        result = ablation_interconnect(replace(TINY, scheduler="greedy_edf"))
        assert len(result.rows[0]) == 2
        assert result.headers[1].startswith("Greedy-EDF")


class TestWriteMix:
    def test_structure(self):
        result = extension_write_mix(TINY, write_fractions=(0.0, 0.4))
        assert [row[0] for row in result.rows] == [0.0, 0.4]
        assert "Read/write" in result.render()

    def test_pure_read_mix_matches_paper_setup(self):
        result = extension_write_mix(
            replace(TINY, scheduler="rtsads"), write_fractions=(0.0,)
        )
        assert 0.0 <= result.rows[0][1] <= 100.0

    def test_theorem_holds_with_writes(self):
        from repro.core import RTSADS, UniformCommunicationModel
        from repro.workload.transactions import build_seeded_workload
        from repro.simulator import simulate

        _, tasks, txns = build_seeded_workload(
            TINY, TINY.base_seed, write_fraction=0.5
        )
        assert any(t.is_write for t in txns)
        comm = UniformCommunicationModel(TINY.remote_cost)
        result = simulate(
            RTSADS(comm, per_vertex_cost=TINY.per_vertex_cost),
            tasks,
            num_workers=TINY.num_processors,
            validate_phases=True,
        )
        assert result.trace.scheduled_but_missed() == []


class TestFailures:
    def test_structure(self):
        result = extension_failures(TINY, failure_counts=(0, 1))
        assert [row[0] for row in result.rows] == [0, 1]
        assert "Fail-stop" in result.render()

    def test_compliance_monotone_in_failures(self):
        result = extension_failures(
            replace(TINY, scheduler="rtsads"), failure_counts=(0, 2)
        )
        assert result.rows[0][1] >= result.rows[1][1] - 1.0

    def test_cannot_fail_whole_machine(self):
        with pytest.raises(ValueError):
            extension_failures(TINY, failure_counts=(TINY.num_processors,))

    def test_counts_are_validated_before_the_first_cell(self, monkeypatch):
        from repro.experiments import figures

        def no_grid(specs, **kwargs):
            raise AssertionError(f"ran {len(specs)} specs before refusing")

        monkeypatch.setattr(figures, "run_grid", no_grid)
        with pytest.raises(ValueError, match="cannot fail every processor"):
            extension_failures(TINY, failure_counts=(0, 1, 99))


class TestFailureAccounting:
    """Property-style checks of the fail-stop rescheduling bookkeeping.

    A task surrendered by a crashing processor re-enters the batch and may
    be rescheduled on a survivor; across every seed the accounting must
    stay exact — one terminal state per task, no surrendered task counted
    both as a deadline miss and as a kept guarantee.
    """

    @pytest.mark.parametrize("seed", [1, 7, 23, 101, 2024])
    def test_no_double_counting_across_seeds(self, seed):
        from repro.core import RTSADS, UniformCommunicationModel
        from repro.workload.transactions import build_seeded_workload
        from repro.runtime.ledger import COMPLETED, EXPIRED, FAILED
        from repro.simulator import simulate

        _, tasks, _ = build_seeded_workload(TINY, seed)
        horizon = 10.0 * TINY.slack_factor * TINY.scan_cost
        comm = UniformCommunicationModel(TINY.remote_cost)
        result = simulate(
            RTSADS(comm, per_vertex_cost=TINY.per_vertex_cost),
            tasks,
            num_workers=TINY.num_processors,
            failures=[(horizon * 0.1, 0), (horizon * 0.2, 2)],
        )
        trace = result.trace

        by_status = {status: [] for status in (COMPLETED, EXPIRED, FAILED)}
        for record in trace.records.values():
            by_status[record.status].append(record)
        completed = by_status[COMPLETED]
        expired = by_status[EXPIRED]
        failed = by_status[FAILED]
        assert (len(completed), len(expired), len(failed)) == (
            result.completed, result.expired, result.failed
        )
        result.check_balance()

        # Exactly one terminal state per task — a surrendered task ends up
        # completed (rescheduled in time), expired, or failed, never two.
        assert len(completed) + len(expired) + len(failed) == (
            result.total_tasks
        )
        ids = (
            [r.task_id for r in completed]
            + [r.task_id for r in expired]
            + [r.task_id for r in failed]
        )
        assert len(ids) == len(set(ids))
        for record in trace.records.values():
            assert record.status in (
                COMPLETED, EXPIRED, FAILED,
            )

        # Hits live strictly inside the completed set: a failed or expired
        # task can never be counted as a kept guarantee.
        hits = [r for r in trace.records.values() if r.met_deadline]
        assert len(hits) <= len(completed)
        assert result.deadline_hits == len(hits)
        late = [r for r in completed if not r.met_deadline]
        assert len(hits) + len(late) == len(completed)

        # The theorem survives the crashes: anything RT-SADS scheduled and
        # that actually ran to completion met its deadline.  (Tasks lost
        # in flight are FAILED, not late.)
        assert trace.scheduled_but_missed() == []

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_failed_tasks_only_come_from_crashed_processors(self, seed):
        from repro.core import RTSADS, UniformCommunicationModel
        from repro.workload.transactions import build_seeded_workload
        from repro.simulator import simulate

        _, tasks, _ = build_seeded_workload(TINY, seed)
        horizon = 10.0 * TINY.slack_factor * TINY.scan_cost
        comm = UniformCommunicationModel(TINY.remote_cost)
        result = simulate(
            RTSADS(comm, per_vertex_cost=TINY.per_vertex_cost),
            tasks,
            num_workers=TINY.num_processors,
            failures=[(horizon * 0.15, 1)],
        )
        from repro.runtime.ledger import FAILED

        for record in result.trace.records.values():
            if record.status == FAILED:
                assert record.processor == 1


class TestCLIIntegration:
    @pytest.mark.parametrize(
        "name",
        [
            "reclaiming",
            "load-sweep",
            "ablate-interconnect",
            "write-mix",
            "failures",
        ],
    )
    def test_cli_runs_extensions(self, name, capsys):
        from repro.experiments.cli import main

        code = main(
            [
                name,
                "--quick",
                "--runs", "1",
                "--transactions", "30",
                "--processors", "3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()
