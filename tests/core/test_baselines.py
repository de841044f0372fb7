"""Tests for the greedy baseline schedulers."""

import pytest

from repro.core import (
    GreedyEDFScheduler,
    MyopicScheduler,
    RandomScheduler,
    UniformCommunicationModel,
    make_task,
)
from repro.core.zoo import (
    CandidateSortScheduler,
    GlobalEDFScheduler,
    PartitionedEDFScheduler,
)


@pytest.fixture
def tasks():
    return [
        make_task(0, processing_time=10.0, deadline=60.0, affinity=[0]),
        make_task(1, processing_time=10.0, deadline=500.0, affinity=[1]),
        make_task(2, processing_time=10.0, deadline=400.0, affinity=[0, 1]),
    ]


def _phase(scheduler, tasks, loads=(0.0, 0.0), now=0.0):
    quantum = scheduler.plan_quantum(tasks, list(loads), now)
    return scheduler.schedule_phase(tasks, list(loads), now, quantum)


class TestGreedyEDF:
    def test_schedules_in_edf_order(self, comm, tasks):
        result = _phase(GreedyEDFScheduler(comm), tasks)
        assert [e.task.task_id for e in result.schedule] == [0, 2, 1]

    def test_picks_earliest_finishing_processor(self, comm):
        tasks = [make_task(0, processing_time=10.0, deadline=900.0,
                           affinity=[0, 1])]
        result = _phase(GreedyEDFScheduler(comm), tasks, loads=(50.0, 5.0))
        assert result.schedule.entries[0].processor == 1

    def test_prefers_affine_processor_when_comm_costly(self, comm):
        tasks = [make_task(0, processing_time=10.0, deadline=900.0,
                           affinity=[0])]
        # P1 is less loaded but remote costs 50.
        result = _phase(GreedyEDFScheduler(comm), tasks, loads=(20.0, 0.0))
        assert result.schedule.entries[0].processor == 0

    def test_schedule_is_deadline_safe(self, comm, tasks):
        result = _phase(GreedyEDFScheduler(comm), tasks)
        result.validate(comm)

    def test_skips_infeasible_without_backtracking(self, comm):
        tasks = [
            make_task(0, processing_time=50.0, deadline=5_000.0, affinity=[0]),
            make_task(1, processing_time=50.0, deadline=56.0, affinity=[0]),
        ]
        result = _phase(GreedyEDFScheduler(comm), tasks)
        # Task 1 (EDF first) fits alone; task 0 fits behind it.
        assert result.schedule.task_ids() == {0, 1}


class TestMyopic:
    def test_schedules_within_window(self, comm, tasks):
        scheduler = MyopicScheduler(comm)
        scheduler.WINDOW = 2  # narrower than the batch
        result = _phase(scheduler, tasks)
        assert len(result.schedule) == 3
        result.validate(comm)

    def test_discards_head_when_window_infeasible(self, comm):
        # Task 0 passes the optimistic pre-filter (1 + 10 <= 12) but is
        # infeasible on both loaded processors; the myopic window must
        # discard it to reach task 1.
        tasks = [
            make_task(0, processing_time=10.0, deadline=12.0, affinity=[0, 1]),
            make_task(1, processing_time=10.0, deadline=900.0, affinity=[0]),
        ]
        scheduler = MyopicScheduler(comm)
        # Instance overrides of the class constants build the scenario: a
        # one-task window, and a quantum spent on probes alone.
        scheduler.WINDOW = 1
        scheduler.PHASE_OVERHEAD_FACTOR = 0.0
        result = scheduler.schedule_phase(
            tasks, [5.0, 5.0], 0.0, quantum=1.0
        )
        assert result.schedule.task_ids() == {1}
        assert result.stats.backtracks >= 1


class TestRandom:
    def test_deterministic_under_seed(self, comm, tasks):
        first = _phase(RandomScheduler(comm), tasks)
        scheduler = RandomScheduler(comm)
        scheduler.reset()
        second = _phase(scheduler, tasks)
        assert [e.task.task_id for e in first.schedule] == [
            e.task.task_id for e in second.schedule
        ]

    def test_only_feasible_assignments(self, comm):
        tasks = [
            make_task(i, processing_time=10.0, deadline=80.0, affinity=[0])
            for i in range(10)
        ]
        result = _phase(RandomScheduler(comm), tasks)
        result.validate(comm)

    def test_reset_restores_stream(self, comm, tasks):
        scheduler = RandomScheduler(comm)
        first = _phase(scheduler, tasks)
        scheduler.reset()
        second = _phase(scheduler, tasks)
        assert [e.processor for e in first.schedule] == [
            e.processor for e in second.schedule
        ]


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", [GreedyEDFScheduler, MyopicScheduler,
                                     RandomScheduler])
    def test_respects_quantum_budget(self, comm, cls):
        scheduler = cls(comm, per_vertex_cost=1.0)
        tasks = [
            make_task(i, processing_time=10.0, deadline=100_000.0)
            for i in range(100)
        ]
        result = scheduler.schedule_phase(tasks, [0.0, 0.0], 0.0, 10.0)
        assert result.time_used <= result.quantum + 1e-9
        assert len(result.schedule) < 100

    @pytest.mark.parametrize("cls", [GreedyEDFScheduler, MyopicScheduler,
                                     RandomScheduler])
    def test_prefilter_drops_hopeless(self, comm, cls):
        scheduler = cls(comm)
        tasks = [make_task(0, processing_time=100.0, deadline=102.0)]
        result = scheduler.schedule_phase(tasks, [0.0], 0.0, 10.0)
        assert len(result.schedule) == 0

    @pytest.mark.parametrize(
        "build",
        [
            GreedyEDFScheduler,
            MyopicScheduler,
            RandomScheduler,
            GlobalEDFScheduler,
            CandidateSortScheduler,
            PartitionedEDFScheduler,
        ],
    )
    def test_rejections_count_every_infeasible_charged_pair(self, comm, build):
        # Local on P0 fits; remote on P1 (+50) does not.  Every rule
        # charges both processors, so every rule reports the one rejection
        # — also those that take the first hit or never rank the misses.
        tasks = [make_task(0, processing_time=10.0, deadline=40.0,
                           affinity=[0])]
        result = build(comm).schedule_phase(tasks, [0.0, 0.0], 0.0, 1.0)
        assert [e.processor for e in result.schedule] == [0]
        assert result.stats.vertices_generated == 2
        assert result.stats.feasibility_rejections == 1
