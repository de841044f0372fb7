"""Tests for the on-line runtime: the full host + workers loop."""

import pytest

from repro.core import (
    DCOLS,
    RTSADS,
    GreedyEDFScheduler,
    UniformCommunicationModel,
    ZeroCommunicationModel,
    make_task,
)
from repro.core.domains import partition_workers
from repro.runtime.ledger import COMPLETED, EXPIRED
from repro.simulator import DistributedRuntime, simulate


def _simulate(tasks, m=2, C=50.0, scheduler_cls=RTSADS, **kwargs):
    comm = UniformCommunicationModel(C)
    return simulate(scheduler_cls(comm, **kwargs), tasks, num_workers=m,
                    validate_phases=True)


class TestBasicRuns:
    def test_single_task_completes_on_time(self):
        tasks = [make_task(0, processing_time=10.0, deadline=200.0,
                           affinity=[0])]
        result = _simulate(tasks, m=2)
        record = result.trace.records[0]
        assert record.status == COMPLETED
        assert record.met_deadline
        assert record.finished_at == pytest.approx(
            record.started_at + 10.0
        )

    def test_all_feasible_tasks_complete(self, simple_tasks):
        result = _simulate(simple_tasks, m=2)
        assert result.hit_ratio == 1.0
        assert result.trace.scheduled_but_missed() == []

    def test_impossible_task_expires(self):
        tasks = [make_task(0, processing_time=100.0, deadline=101.0)]
        result = _simulate(tasks, m=1)
        record = result.trace.records[0]
        # Scheduling overhead makes the task hopeless; it must be dropped,
        # never scheduled late.
        assert record.status in (COMPLETED, EXPIRED)
        if record.status == EXPIRED:
            assert record.scheduled_phase is None

    def test_empty_workload(self):
        result = _simulate([], m=2)
        assert result.total_tasks == 0
        assert result.makespan == 0.0

    def test_makespan_is_last_event(self, simple_tasks):
        result = _simulate(simple_tasks, m=2)
        finishes = [
            r.finished_at
            for r in result.trace.records.values()
            if r.finished_at is not None
        ]
        assert result.makespan == pytest.approx(max(finishes))


class TestOnlineSemantics:
    def test_bursty_arrivals_form_one_initial_batch(self):
        tasks = [
            make_task(i, processing_time=10.0, deadline=10_000.0)
            for i in range(8)
        ]
        result = _simulate(tasks, m=2)
        first_phase = result.phases[0]
        assert first_phase.batch_size == 8

    def test_staggered_arrivals_join_later_batches(self):
        tasks = [
            make_task(0, processing_time=10.0, deadline=10_000.0),
            make_task(
                1, processing_time=10.0, deadline=10_000.0, arrival_time=500.0
            ),
        ]
        result = _simulate(tasks, m=1)
        records = result.trace.records
        assert records[1].scheduled_phase > records[0].scheduled_phase
        assert records[1].started_at >= 500.0

    def test_tasks_execute_in_delivery_order(self):
        tasks = [
            make_task(0, processing_time=10.0, deadline=10_000.0),
            make_task(1, processing_time=10.0, deadline=10_000.0),
        ]
        result = _simulate(tasks, m=1)
        records = result.trace.records
        assert records[0].finished_at <= records[1].started_at or (
            records[1].finished_at <= records[0].started_at
        )

    def test_workers_execute_during_scheduling(self):
        """Phase j+1 runs while S_j executes: starts can precede later
        phases' delivery."""
        tasks = [
            make_task(i, processing_time=50.0, deadline=100_000.0)
            for i in range(3)
        ] + [
            make_task(
                i, processing_time=50.0, deadline=100_000.0, arrival_time=10.0
            )
            for i in range(3, 6)
        ]
        comm = ZeroCommunicationModel()
        scheduler = RTSADS(comm, per_vertex_cost=5.0)  # slow host
        result = simulate(scheduler, tasks, num_workers=1)
        assert len(result.phases) >= 2
        first_start = min(
            r.started_at
            for r in result.trace.records.values()
            if r.started_at is not None
        )
        assert first_start < result.phases[-1].end

    def test_theorem_no_scheduled_task_misses(self, synthetic_workload):
        result = simulate(
            RTSADS(UniformCommunicationModel(50.0)),
            synthetic_workload,
            num_workers=4,
            validate_phases=True,
        )
        assert result.trace.scheduled_but_missed() == []

    def test_theorem_holds_for_dcols(self, synthetic_workload):
        result = simulate(
            DCOLS(UniformCommunicationModel(50.0)),
            synthetic_workload,
            num_workers=4,
            validate_phases=True,
        )
        assert result.trace.scheduled_but_missed() == []

    def test_every_task_reaches_terminal_state(self, synthetic_workload):
        result = _simulate(list(synthetic_workload), m=4)
        for record in result.trace.records.values():
            assert record.status in (COMPLETED, EXPIRED)


class TestRuntimeConstruction:
    def test_simulate_uses_scheduler_comm_by_default(self, simple_tasks):
        comm = UniformCommunicationModel(50.0)
        result = simulate(RTSADS(comm), simple_tasks, num_workers=2)
        assert result.num_workers == 2

    def test_simulate_requires_comm_somewhere(self, simple_tasks):
        class NoComm:
            name = "none"

            def reset(self):
                pass

        with pytest.raises(ValueError):
            simulate(NoComm(), simple_tasks, num_workers=2)

    def test_duplicate_task_ids_rejected(self):
        tasks = [
            make_task(0, processing_time=1.0, deadline=10.0),
            make_task(0, processing_time=1.0, deadline=10.0),
        ]
        comm = UniformCommunicationModel(1.0)
        runtime = DistributedRuntime(
            schedulers=[RTSADS(comm)],
            assignment=partition_workers(1, 1),
            workload=tasks,
            remote_cost=comm.remote_cost,
        )
        with pytest.raises(ValueError):
            runtime.run()

    def test_summary_mentions_scheduler_and_ratio(self, simple_tasks):
        result = _simulate(simple_tasks, m=2)
        summary = result.summary()
        assert "RT-SADS" in summary
        assert "100.0%" in summary

    def test_greedy_baseline_through_runtime(self, simple_tasks):
        result = _simulate(simple_tasks, m=2,
                           scheduler_cls=GreedyEDFScheduler)
        assert result.hit_ratio == 1.0


class TestDeterminism:
    def test_repeated_runs_identical(self, synthetic_workload):
        def run():
            return simulate(
                RTSADS(UniformCommunicationModel(50.0)),
                list(synthetic_workload),
                num_workers=4,
            )

        first, second = run(), run()
        assert first.hit_ratio == second.hit_ratio
        assert len(first.phases) == len(second.phases)
        for a, b in zip(first.phases, second.phases):
            assert a.quantum == b.quantum
            assert a.scheduled == b.scheduled
