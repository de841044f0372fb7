"""Tests for the search machinery: vertices, CL, budgets, DFS driver."""

import pytest

from repro.core import (
    AssignmentOrientedExpander,
    CandidateList,
    LoadBalancingEvaluator,
    PhaseContext,
    VirtualTimeBudget,
    WallClockBudget,
    ZeroCommunicationModel,
    make_child,
    make_root,
    make_task,
    run_search,
)


def _ctx(tasks, m=2, quantum=1000.0, offsets=None, comm=None, now=0.0):
    return PhaseContext(
        tasks=tasks,
        num_processors=m,
        comm=comm or ZeroCommunicationModel(),
        phase_start=now,
        quantum=quantum,
        initial_offsets=offsets or (0.0,) * m,
        evaluator=LoadBalancingEvaluator(),
    )


class TestVertex:
    def test_root_properties(self):
        root = make_root((1.0, 2.0))
        assert root.is_root()
        assert root.depth == 0
        assert root.proc_offsets == (1.0, 2.0)
        assert root.path() == []

    def test_child_extends_offsets(self):
        root = make_root((0.0, 0.0))
        child = make_child(root, 0, 1, total_cost=10.0, communication_cost=0.0)
        assert child.proc_offsets == (0.0, 10.0)
        assert child.scheduled_end == 10.0
        assert child.depth == 1
        assert child.scheduled_mask == 1

    def test_child_mask_accumulates(self):
        root = make_root((0.0,))
        a = make_child(root, 0, 0, 5.0, 0.0)
        b = make_child(a, 3, 0, 5.0, 0.0)
        assert b.scheduled_mask == 0b1001

    def test_path_in_root_to_leaf_order(self):
        root = make_root((0.0,))
        a = make_child(root, 0, 0, 5.0, 0.0)
        b = make_child(a, 1, 0, 5.0, 0.0)
        assert [v.batch_index for v in b.path()] == [0, 1]

    def test_child_does_not_mutate_parent(self):
        root = make_root((0.0, 0.0))
        make_child(root, 0, 0, 10.0, 0.0)
        assert root.proc_offsets == (0.0, 0.0)
        assert root.scheduled_mask == 0


class TestCandidateList:
    def _vertices(self, n):
        root = make_root((0.0,))
        return [make_child(root, i, 0, 1.0, 0.0) for i in range(n)]

    def test_pop_returns_block_best_first(self):
        cl = CandidateList()
        block = self._vertices(3)
        cl.push_block(block)
        assert cl.pop() is block[0]
        assert cl.pop() is block[1]

    def test_depth_first_across_blocks(self):
        cl = CandidateList()
        first = self._vertices(2)
        second = self._vertices(2)
        cl.push_block(first)
        cl.push_block(second)  # newer block pops first
        assert cl.pop() is second[0]

    def test_pop_empty_returns_none(self):
        assert CandidateList().pop() is None

    def test_max_size_drops_oldest(self):
        cl = CandidateList(max_size=3)
        vertices = self._vertices(5)
        cl.push_block(vertices)
        assert len(cl) == 3
        assert cl.dropped == 2
        # Best candidates survive (oldest/worst trimmed from the bottom).
        assert cl.pop() is vertices[0]

    def test_max_size_validation(self):
        with pytest.raises(ValueError):
            CandidateList(max_size=0)


class TestVirtualTimeBudget:
    def test_charges_per_vertex(self):
        budget = VirtualTimeBudget(quantum=1.0, per_vertex_cost=0.1)
        budget.charge(3)
        assert budget.used() == pytest.approx(0.3)
        assert not budget.exhausted()
        assert budget.remaining() == pytest.approx(0.7)

    def test_exhaustion(self):
        budget = VirtualTimeBudget(quantum=1.0, per_vertex_cost=0.5)
        budget.charge(2)
        assert budget.exhausted()
        assert budget.remaining() == 0.0

    def test_consume_direct_time(self):
        budget = VirtualTimeBudget(quantum=1.0, per_vertex_cost=0.1)
        budget.consume(0.95)
        budget.charge(1)
        assert budget.exhausted()

    def test_consume_validation(self):
        budget = VirtualTimeBudget(quantum=1.0, per_vertex_cost=0.1)
        with pytest.raises(ValueError):
            budget.consume(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualTimeBudget(quantum=-1.0, per_vertex_cost=0.1)
        with pytest.raises(ValueError):
            VirtualTimeBudget(quantum=1.0, per_vertex_cost=0.0)


class TestWallClockBudget:
    def test_counts_vertices_and_measures_time(self):
        budget = WallClockBudget(quantum_seconds=10.0)
        budget.charge(5)
        assert budget.vertices_charged == 5
        assert budget.used() >= 0.0
        assert not budget.exhausted()

    def test_zero_quantum_exhausts_immediately(self):
        budget = WallClockBudget(quantum_seconds=0.0)
        assert budget.exhausted()

    def test_clock_starts_lazily_not_at_construction(self, monkeypatch):
        # Regression: the budget is built alongside the phase context, and
        # setup time between construction and the first search step must
        # not be billed against the quantum.
        from repro.core import search as search_module

        fake_now = [100.0]
        monkeypatch.setattr(
            search_module.time, "perf_counter", lambda: fake_now[0]
        )
        budget = WallClockBudget(quantum_seconds=5.0)
        assert not budget.started
        fake_now[0] = 200.0  # a long pause before the search begins
        budget.charge(1)
        assert budget.started
        fake_now[0] = 202.0
        assert budget.used() == pytest.approx(2.0)
        assert not budget.exhausted()
        assert budget.remaining() == pytest.approx(3.0)

    def test_first_used_call_starts_the_clock(self, monkeypatch):
        from repro.core import search as search_module

        fake_now = [50.0]
        monkeypatch.setattr(
            search_module.time, "perf_counter", lambda: fake_now[0]
        )
        budget = WallClockBudget(quantum_seconds=1.0)
        fake_now[0] = 75.0
        # The very first used() must read zero, not the setup gap.
        assert budget.used() == pytest.approx(0.0)

    def test_negative_quantum_rejected(self):
        with pytest.raises(ValueError):
            WallClockBudget(quantum_seconds=-1.0)


class TestRunSearch:
    def test_schedules_all_when_feasible(self):
        tasks = [
            make_task(i, processing_time=10.0, deadline=10_000.0)
            for i in range(5)
        ]
        ctx = _ctx(tasks, m=2)
        outcome = run_search(
            ctx, AssignmentOrientedExpander(),
            VirtualTimeBudget(1000.0, 0.01),
        )
        assert outcome.stats.complete
        assert outcome.best.depth == 5
        schedule = outcome.extract_schedule(ctx)
        assert schedule.task_ids() == {0, 1, 2, 3, 4}

    def test_budget_interrupts_search(self):
        tasks = [
            make_task(i, processing_time=10.0, deadline=10_000.0)
            for i in range(50)
        ]
        ctx = _ctx(tasks, m=2)
        # Budget admits only a handful of expansions (2 vertices each).
        outcome = run_search(
            ctx, AssignmentOrientedExpander(), VirtualTimeBudget(1.0, 0.1)
        )
        assert not outcome.stats.complete
        assert 0 < outcome.best.depth < 50
        assert outcome.time_used <= 1.0

    def test_partial_schedule_is_feasible_at_interruption(self):
        """The anytime property: any interruption yields a valid schedule."""
        tasks = [
            make_task(i, processing_time=10.0, deadline=500.0) for i in range(20)
        ]
        ctx = _ctx(tasks, m=2, quantum=50.0)
        outcome = run_search(
            ctx, AssignmentOrientedExpander(), VirtualTimeBudget(50.0, 1.0)
        )
        schedule = outcome.extract_schedule(ctx)
        schedule.validate(
            ctx.comm, dict(enumerate(ctx.initial_offsets)), ctx.phase_end_bound
        )

    def test_maximal_stop_when_nothing_fits(self):
        # Two tasks fit back to back; the third can never fit behind them
        # (bound 5 + se 30 > 25), so the search proves maximality and stops.
        tasks = [
            make_task(i, processing_time=10.0, deadline=25.0) for i in range(3)
        ]
        ctx = _ctx(tasks, m=1, quantum=5.0)
        outcome = run_search(
            ctx, AssignmentOrientedExpander(), VirtualTimeBudget(5.0, 0.01)
        )
        assert outcome.stats.maximal
        assert outcome.best.depth == 2

    def test_dead_end_when_root_has_no_feasible_tasks(self):
        tasks = [make_task(0, processing_time=100.0, deadline=101.0)]
        ctx = _ctx(tasks, m=1, quantum=50.0)
        outcome = run_search(
            ctx, AssignmentOrientedExpander(), VirtualTimeBudget(50.0, 0.01)
        )
        # Root expansion is exhaustive and empty -> maximal empty schedule.
        assert outcome.best.depth == 0
        assert len(outcome.extract_schedule(ctx)) == 0

    def test_stats_processors_touched(self):
        tasks = [
            make_task(i, processing_time=10.0, deadline=10_000.0)
            for i in range(6)
        ]
        ctx = _ctx(tasks, m=3)
        outcome = run_search(
            ctx, AssignmentOrientedExpander(), VirtualTimeBudget(1000.0, 0.001)
        )
        # Load balancing spreads 6 equal tasks over all 3 processors.
        assert outcome.stats.processors_touched == 3


class TestPhaseContextValidation:
    def test_rejects_mismatched_offsets(self):
        with pytest.raises(ValueError):
            _ctx([], m=2, offsets=(0.0,))

    def test_rejects_negative_quantum(self):
        with pytest.raises(ValueError):
            _ctx([], m=1, quantum=-1.0)

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            PhaseContext(
                tasks=[],
                num_processors=0,
                comm=ZeroCommunicationModel(),
                phase_start=0.0,
                quantum=1.0,
                initial_offsets=(),
                evaluator=LoadBalancingEvaluator(),
            )
