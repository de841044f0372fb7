"""Tests for the assignment- vs sequence-oriented expanders."""

import pytest

from repro.core import (
    AssignmentOrientedExpander,
    LoadBalancingEvaluator,
    PhaseContext,
    SearchStats,
    SequenceOrientedExpander,
    UniformCommunicationModel,
    VirtualTimeBudget,
    ZeroCommunicationModel,
    make_root,
    make_task,
    run_search,
)


def _ctx(tasks, m=2, quantum=1000.0, comm=None, offsets=None):
    return PhaseContext(
        tasks=sorted(tasks, key=lambda t: (t.deadline, t.task_id)),
        num_processors=m,
        comm=comm or ZeroCommunicationModel(),
        phase_start=0.0,
        quantum=quantum,
        initial_offsets=offsets or (0.0,) * m,
        evaluator=LoadBalancingEvaluator(),
    )


def _budget():
    return VirtualTimeBudget(quantum=10_000.0, per_vertex_cost=0.001)


class TestAssignmentOrientedExpander:
    def test_branches_on_processors(self):
        tasks = [make_task(0, processing_time=10.0, deadline=10_000.0)]
        ctx = _ctx(tasks, m=3)
        expansion = AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert len(expansion.successors) == 3
        assert {v.processor for v in expansion.successors} == {0, 1, 2}
        assert all(v.batch_index == 0 for v in expansion.successors)

    def test_selects_edf_first_task(self):
        tasks = [
            make_task(0, processing_time=10.0, deadline=9_000.0),
            make_task(1, processing_time=10.0, deadline=2_000.0),
        ]
        ctx = _ctx(tasks, m=2)  # quantum 1000, so both tasks are feasible
        expansion = AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        # ctx.tasks is EDF sorted, so index 0 is the d=2000 task.
        chosen = ctx.tasks[expansion.successors[0].batch_index]
        assert chosen.deadline == 2_000.0

    def test_filters_infeasible_processors(self):
        comm = UniformCommunicationModel(remote_cost=500.0)
        tasks = [
            make_task(0, processing_time=10.0, deadline=100.0, affinity=[1])
        ]
        ctx = _ctx(tasks, m=2, quantum=50.0, comm=comm)
        expansion = AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert [v.processor for v in expansion.successors] == [1]

    def test_skips_hopeless_task_and_prunes_subtree(self):
        tasks = [
            # EDF-first but infeasible everywhere under quantum 50.
            make_task(0, processing_time=60.0, deadline=100.0),
            make_task(1, processing_time=10.0, deadline=10_000.0),
        ]
        ctx = _ctx(tasks, m=2, quantum=50.0)
        expansion = AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert expansion.successors
        child = expansion.successors[0]
        assert ctx.tasks[child.batch_index].task_id == 1
        # The hopeless task's bit is pruned into the subtree mask.
        assert child.scheduled_mask & 1 == 1

    def test_charges_budget_for_infeasible_probes(self):
        tasks = [make_task(0, processing_time=60.0, deadline=100.0)]
        ctx = _ctx(tasks, m=4, quantum=50.0)
        budget = _budget()
        AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, budget, SearchStats()
        )
        assert budget.used() == pytest.approx(4 * 0.001)

    def test_exhaustive_flag_when_all_probed(self):
        tasks = [make_task(0, processing_time=60.0, deadline=100.0)]
        ctx = _ctx(tasks, m=2, quantum=50.0)
        expansion = AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert not expansion.successors
        assert expansion.exhaustive

    def test_not_exhaustive_when_probe_capped(self):
        tasks = [
            make_task(i, processing_time=60.0, deadline=100.0) for i in range(3)
        ]
        ctx = _ctx(tasks, m=2, quantum=50.0)
        # The budget runs out after the first probe (2 vertices), so the
        # remaining tasks were never tried: no proof of maximality.
        budget = VirtualTimeBudget(quantum=0.002, per_vertex_cost=0.001)
        expansion = AssignmentOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, budget, SearchStats()
        )
        assert not expansion.successors
        assert not expansion.exhaustive


class TestSequenceOrientedExpander:
    def test_branches_on_tasks(self):
        tasks = [
            make_task(i, processing_time=10.0, deadline=10_000.0)
            for i in range(3)
        ]
        ctx = _ctx(tasks, m=3)
        expansion = SequenceOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert len(expansion.successors) == 3
        assert all(v.processor == 0 for v in expansion.successors)
        assert {v.batch_index for v in expansion.successors} == {0, 1, 2}

    def test_round_robin_processor_per_level(self):
        expander = SequenceOrientedExpander()
        assert expander.processor_at(0, 4) == 0
        assert expander.processor_at(1, 4) == 1
        assert expander.processor_at(4, 4) == 0

    def test_default_beam_is_processor_count(self):
        tasks = [
            make_task(i, processing_time=10.0, deadline=10_000.0)
            for i in range(10)
        ]
        ctx = _ctx(tasks, m=3)
        expansion = SequenceOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert len(expansion.successors) == 3

    def test_never_exhaustive(self):
        """A failed level cannot certify a maximal schedule."""
        tasks = [
            make_task(0, processing_time=10.0, deadline=100.0, affinity=[1])
        ]
        comm = UniformCommunicationModel(remote_cost=500.0)
        ctx = _ctx(tasks, m=2, quantum=50.0, comm=comm)
        # Level 0 considers P0, where the task is infeasible.
        expansion = SequenceOrientedExpander().successors(
            make_root(ctx.initial_offsets), ctx, _budget(), SearchStats()
        )
        assert not expansion.successors
        assert not expansion.exhaustive

    def test_dead_end_against_affinity(self):
        """Low affinity on the level's processor dead-ends the search."""
        comm = UniformCommunicationModel(remote_cost=500.0)
        tasks = [
            make_task(i, processing_time=10.0, deadline=100.0, affinity=[1])
            for i in range(4)
        ]
        ctx = _ctx(tasks, m=2, quantum=50.0, comm=comm)
        outcome = run_search(
            ctx, SequenceOrientedExpander(), VirtualTimeBudget(50.0, 0.001)
        )
        # Level 0 = P0: every task infeasible there -> immediate dead end.
        assert outcome.stats.dead_end
        assert outcome.best.depth == 0

    def test_assignment_representation_survives_same_workload(self):
        comm = UniformCommunicationModel(remote_cost=500.0)
        tasks = [
            make_task(i, processing_time=10.0, deadline=100.0, affinity=[1])
            for i in range(4)
        ]
        ctx = _ctx(tasks, m=2, quantum=50.0, comm=comm)
        outcome = run_search(
            ctx, AssignmentOrientedExpander(), VirtualTimeBudget(50.0, 0.001)
        )
        assert outcome.best.depth > 0
