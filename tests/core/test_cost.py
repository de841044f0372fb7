"""Tests for vertex evaluators (cost functions and heuristics)."""

from repro.core import (
    EarliestFinishEvaluator,
    FifoEvaluator,
    LoadBalancingEvaluator,
    MinSlackEvaluator,
    PhaseContext,
    ZeroCommunicationModel,
    make_child,
    make_root,
    make_task,
)


def _ctx(tasks, m=2, quantum=100.0, offsets=None):
    return PhaseContext(
        tasks=tasks,
        num_processors=m,
        comm=ZeroCommunicationModel(),
        phase_start=0.0,
        quantum=quantum,
        initial_offsets=offsets or (0.0,) * m,
        evaluator=LoadBalancingEvaluator(),
    )


class TestLoadBalancingEvaluator:
    def test_value_is_max_processor_offset(self):
        tasks = [make_task(0, processing_time=10.0, deadline=1000.0)]
        ctx = _ctx(tasks, m=2, offsets=(30.0, 0.0))
        root = make_root(ctx.initial_offsets)
        on_p0 = make_child(root, 0, 0, 10.0, 0.0)  # offsets (40, 0)
        on_p1 = make_child(root, 0, 1, 10.0, 0.0)  # offsets (30, 10)
        evaluator = LoadBalancingEvaluator()
        assert evaluator.evaluate(ctx, on_p0) > evaluator.evaluate(ctx, on_p1)

    def test_prefers_balanced_assignment(self):
        """The paper's CE picks the processor that minimizes the makespan."""
        tasks = [make_task(0, processing_time=10.0, deadline=1000.0)]
        ctx = _ctx(tasks, m=3, offsets=(50.0, 20.0, 35.0))
        root = make_root(ctx.initial_offsets)
        evaluator = LoadBalancingEvaluator()
        values = {
            proc: evaluator.evaluate(ctx, make_child(root, 0, proc, 10.0, 0.0))
            for proc in range(3)
        }
        assert min(values, key=values.get) == 1  # least-loaded processor

    def test_accounts_for_communication_in_ce(self):
        """CE trades load balance against communication (Section 4.4)."""
        tasks = [make_task(0, processing_time=10.0, deadline=1000.0)]
        ctx = _ctx(tasks, m=2, offsets=(0.0, 0.0))
        root = make_root(ctx.initial_offsets)
        local = make_child(root, 0, 0, 10.0, 0.0)
        remote = make_child(root, 0, 1, 60.0, 50.0)  # p + C
        evaluator = LoadBalancingEvaluator()
        assert evaluator.evaluate(ctx, local) < evaluator.evaluate(ctx, remote)


class TestEarliestFinishEvaluator:
    def test_value_is_scheduled_end(self):
        tasks = [make_task(0, processing_time=10.0, deadline=1000.0)]
        ctx = _ctx(tasks, m=2, offsets=(30.0, 0.0))
        root = make_root(ctx.initial_offsets)
        child = make_child(root, 0, 0, 10.0, 0.0)
        assert EarliestFinishEvaluator().evaluate(ctx, child) == 40.0


class TestMinSlackEvaluator:
    def test_tighter_fit_scores_lower(self):
        tasks = [
            make_task(0, processing_time=10.0, deadline=60.0),
            make_task(1, processing_time=10.0, deadline=900.0),
        ]
        ctx = _ctx(tasks, m=1, quantum=20.0)
        root = make_root(ctx.initial_offsets)
        tight = make_child(root, 0, 0, 10.0, 0.0)
        loose = make_child(root, 1, 0, 10.0, 0.0)
        evaluator = MinSlackEvaluator()
        assert evaluator.evaluate(ctx, tight) < evaluator.evaluate(ctx, loose)


class TestFifoEvaluator:
    def test_constant_value(self):
        tasks = [make_task(0, processing_time=10.0, deadline=1000.0)]
        ctx = _ctx(tasks)
        root = make_root(ctx.initial_offsets)
        child = make_child(root, 0, 0, 10.0, 0.0)
        assert FifoEvaluator().evaluate(ctx, child) == 0.0
