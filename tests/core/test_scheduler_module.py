"""Tests for scheduler-module helpers and bounded-memory search."""

import pytest

from repro.core import (
    RTSADS,
    AssignmentOrientedExpander,
    LoadBalancingEvaluator,
    PhaseContext,
    UniformCommunicationModel,
    VirtualTimeBudget,
    ZeroCommunicationModel,
    make_task,
    run_search,
)
from repro.core.scheduler import Scheduler, phase_overhead, useful_search_time


class TestBudgetHelpers:
    def test_useful_search_time_formula(self):
        assert useful_search_time(
            batch_size=100, num_processors=4, per_vertex_cost=0.1,
            cap_factor=3.0,
        ) == pytest.approx(3.0 * 0.1 * 4 * 100)

    def test_useful_search_time_floors_empty_batch(self):
        assert useful_search_time(0, 4, 0.1, 3.0) == pytest.approx(1.2)

    def test_phase_overhead_formula(self):
        assert phase_overhead(
            batch_size=50, num_processors=10, per_vertex_cost=0.02,
            overhead_factor=1.0,
        ) == pytest.approx(0.02 * 60)

    def test_phase_overhead_disabled(self):
        assert phase_overhead(50, 10, 0.02, 0.0) == 0.0

    def test_defaults_positive(self):
        assert Scheduler.QUANTUM_CAP_FACTOR > 0
        assert Scheduler.PHASE_OVERHEAD_FACTOR >= 0


class TestBoundedCandidateListSearch:
    """The host's scheduling memory is finite; a tiny CL must still work."""

    def _ctx(self, n=30, m=3):
        tasks = [
            make_task(i, processing_time=10.0, deadline=5_000.0)
            for i in range(n)
        ]
        return PhaseContext(
            tasks=tasks,
            num_processors=m,
            comm=ZeroCommunicationModel(),
            phase_start=0.0,
            quantum=500.0,
            initial_offsets=(0.0,) * m,
            evaluator=LoadBalancingEvaluator(),
        )

    def test_search_valid_with_tiny_cl(self):
        ctx = self._ctx()
        outcome = run_search(
            ctx,
            AssignmentOrientedExpander(),
            VirtualTimeBudget(500.0, 0.01),
            max_candidates=2,
        )
        assert outcome.best.depth > 0
        schedule = outcome.extract_schedule(ctx)
        schedule.validate(
            ctx.comm, dict(enumerate(ctx.initial_offsets)), ctx.phase_end_bound
        )

    def test_dropped_candidates_reported(self):
        ctx = self._ctx()
        outcome = run_search(
            ctx,
            AssignmentOrientedExpander(),
            VirtualTimeBudget(500.0, 0.01),
            max_candidates=2,
        )
        assert outcome.candidates_dropped > 0

    def test_scheduler_level_cl_bound(self):
        comm = UniformCommunicationModel(10.0)
        scheduler = RTSADS(comm)
        scheduler.max_candidates = 4  # as the A5 memory ablation sets it
        tasks = [
            make_task(i, processing_time=10.0, deadline=5_000.0)
            for i in range(20)
        ]
        quantum = scheduler.plan_quantum(tasks, [0.0, 0.0], 0.0)
        result = scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, quantum)
        result.validate(comm)
        assert len(result.schedule) > 0


class TestPublicAPI:
    """Top-level package exports the documented surface."""

    def test_top_level_exports(self):
        import repro

        for name in (
            "RTSADS",
            "DCOLS",
            "GreedyEDFScheduler",
            "MyopicScheduler",
            "RandomScheduler",
            "Task",
            "TaskSet",
            "UniformCommunicationModel",
            "Schedule",
            "Scheduler",
            "SelfAdjustingQuantum",
            "RunReport",
            "simulate",
            "make_task",
        ):
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_lists_are_accurate(self):
        import repro
        import repro.core
        import repro.database
        import repro.experiments
        import repro.metrics
        import repro.runtime
        import repro.simulator
        import repro.workload

        for module in (
            repro,
            repro.core,
            repro.database,
            repro.experiments,
            repro.metrics,
            repro.runtime,
            repro.simulator,
            repro.workload,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
