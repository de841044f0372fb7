"""Tests for RT-SADS, D-COLS, and the scheduler interface glue."""

import pytest

from repro.core import (
    DCOLS,
    RTSADS,
    EarliestFinishEvaluator,
    FixedQuantum,
    LoadBalancingEvaluator,
    SelfAdjustingQuantum,
    UniformCommunicationModel,
    make_task,
)
from repro.core.scheduler import phase_overhead, useful_search_time


@pytest.fixture
def tasks():
    return [
        make_task(i, processing_time=10.0, deadline=500.0, affinity=[i % 2])
        for i in range(6)
    ]


class TestRTSADS:
    def test_defaults_match_paper(self, comm):
        scheduler = RTSADS(comm)
        assert scheduler.name == "RT-SADS"
        assert isinstance(scheduler.evaluator, LoadBalancingEvaluator)
        assert isinstance(scheduler.quantum_policy, SelfAdjustingQuantum)

    def test_schedule_phase_produces_feasible_schedule(self, comm, tasks):
        scheduler = RTSADS(comm)
        quantum = scheduler.plan_quantum(tasks, [0.0, 0.0], now=0.0)
        result = scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, quantum)
        assert len(result.schedule) == 6
        result.validate(comm)

    def test_phase_counter_advances_and_resets(self, comm, tasks):
        scheduler = RTSADS(comm)
        quantum = scheduler.plan_quantum(tasks, [0.0, 0.0], now=0.0)
        scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, quantum)
        assert scheduler.phase_index == 1
        scheduler.reset()
        assert scheduler.phase_index == 0

    def test_override_evaluator(self, comm):
        scheduler = RTSADS(comm, evaluator=EarliestFinishEvaluator())
        assert isinstance(scheduler.evaluator, EarliestFinishEvaluator)

    def test_override_quantum_policy(self, comm, tasks):
        scheduler = RTSADS(comm, quantum_policy=FixedQuantum(5.0))
        assert scheduler.plan_quantum(tasks, [0.0], now=0.0) == 5.0

    def test_quantum_capped_by_useful_search_time(self, comm):
        scheduler = RTSADS(comm, per_vertex_cost=0.01)
        batch = [make_task(0, processing_time=1.0, deadline=1e9)]
        quantum = scheduler.plan_quantum(batch, [0.0, 0.0], now=0.0)
        cap = useful_search_time(1, 2, 0.01, scheduler.QUANTUM_CAP_FACTOR)
        assert quantum <= max(cap, scheduler.quantum_policy.min_quantum)

    def test_phase_overhead_consumes_time(self, comm, tasks):
        scheduler = RTSADS(comm)
        quantum = scheduler.plan_quantum(tasks, [0.0, 0.0], now=0.0)
        result = scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, quantum)
        overhead = phase_overhead(
            len(tasks), 2, scheduler.per_vertex_cost,
            scheduler.PHASE_OVERHEAD_FACTOR,
        )
        assert result.time_used >= overhead

    def test_validation(self, comm):
        with pytest.raises(ValueError):
            RTSADS(comm, per_vertex_cost=0.0)


class TestDCOLS:
    def test_defaults(self, comm):
        scheduler = DCOLS(comm)
        assert scheduler.name == "D-COLS"

    def test_round_robin_assignment_order(self, comm):
        tasks = [
            make_task(i, processing_time=10.0, deadline=1000.0, affinity=[0, 1])
            for i in range(4)
        ]
        scheduler = DCOLS(comm)
        quantum = scheduler.plan_quantum(tasks, [0.0, 0.0], now=0.0)
        result = scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, quantum)
        assert [e.processor for e in result.schedule.entries] == [0, 1, 0, 1]

    def test_same_quantum_regime_as_rtsads(self, comm, tasks):
        """Section 5.2: both algorithms get the same time quantum."""
        rtsads = RTSADS(comm)
        dcols = DCOLS(comm)
        loads = [13.0, 4.0]
        assert rtsads.plan_quantum(tasks, loads, 0.0) == pytest.approx(
            dcols.plan_quantum(tasks, loads, 0.0)
        )

    def test_schedule_is_deadline_safe(self, comm, tasks):
        scheduler = DCOLS(comm)
        quantum = scheduler.plan_quantum(tasks, [0.0, 0.0], now=0.0)
        result = scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, quantum)
        result.validate(comm)
