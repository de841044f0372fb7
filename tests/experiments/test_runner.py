"""Tests for the experiment runner."""

import pytest

from repro.core import DCOLS, RTSADS, GreedyEDFScheduler, UniformCommunicationModel
from repro.core.quantum import FixedQuantum
from repro.experiments import (
    ExperimentConfig,
    build_scheduler,
    build_workload,
    run_cell,
    run_once,
)

TINY = ExperimentConfig.quick(
    num_transactions=40, runs=2, num_processors=3
)


class TestBuildScheduler:
    def setup_method(self):
        self.comm = UniformCommunicationModel(10.0)

    @pytest.mark.parametrize(
        "name,cls",
        [("rtsads", RTSADS), ("dcols", DCOLS),
         ("greedy_edf", GreedyEDFScheduler)],
    )
    def test_registry(self, name, cls):
        scheduler = build_scheduler(name, TINY, self.comm)
        assert isinstance(scheduler, cls)
        assert scheduler.per_vertex_cost == TINY.per_vertex_cost

    def test_quantum_policy_override(self):
        scheduler = build_scheduler(
            "rtsads", TINY, self.comm, quantum_policy=FixedQuantum(9.0)
        )
        assert isinstance(scheduler.quantum_policy, FixedQuantum)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_scheduler("bogus", TINY, self.comm)


class TestBuildWorkload:
    def test_workload_matches_config(self):
        database, tasks = build_workload(TINY, seed=1)
        assert len(tasks) == 40
        assert database.config.num_subdatabases == TINY.num_subdatabases
        assert database.placement.num_processors == 3

    def test_seed_controls_workload(self):
        _, a = build_workload(TINY, seed=1)
        _, b = build_workload(TINY, seed=1)
        _, c = build_workload(TINY, seed=2)
        assert [t.processing_time for t in a] == [t.processing_time for t in b]
        assert [t.processing_time for t in a] != [t.processing_time for t in c]


class TestRunOnce:
    def test_produces_valid_result(self):
        result = run_once(TINY, "rtsads", seed=1, validate_phases=True)
        assert result.total_tasks == 40
        assert result.trace.scheduled_but_missed() == []

    def test_deterministic(self):
        a = run_once(TINY, "dcols", seed=3)
        b = run_once(TINY, "dcols", seed=3)
        assert a.hit_ratio == b.hit_ratio


class TestRunCell:
    def test_aggregates_all_runs(self):
        cell = run_cell(TINY, "rtsads")
        assert len(cell.hit_percents) == 2
        assert 0.0 <= cell.mean_hit_percent <= 100.0
        assert cell.scheduled_but_missed == 0

    def test_confidence_interval_available(self):
        cell = run_cell(TINY, "rtsads")
        ci = cell.hit_ci()
        assert ci is not None
        assert ci.low <= cell.mean_hit_percent <= ci.high

    def test_stats_fields_populated(self):
        cell = run_cell(TINY, "dcols")
        assert len(cell.dead_end_rates) == 2
        assert len(cell.makespans) == 2
        assert cell.mean_depth >= 0.0
