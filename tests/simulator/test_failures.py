"""Tests for fail-stop processor crashes and rescheduling."""

import math

import pytest

from repro.core import (
    DCOLS,
    RTSADS,
    ScheduleEntry,
    UniformCommunicationModel,
    make_task,
)
from repro.core.domains import partition_workers
from repro.runtime.ledger import COMPLETED, EXPIRED, FAILED
from repro.simulator import DistributedRuntime, WorkerProcessor
from repro.workload import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


def _entry(task_id, p=10.0):
    task = make_task(task_id, processing_time=p, deadline=100_000.0)
    return ScheduleEntry(
        task=task, processor=0, communication_cost=0.0, scheduled_end=p
    )


def _workload(n=50, m=4, sf=3.0, seed=5):
    return SyntheticWorkloadGenerator(
        SyntheticWorkloadConfig(
            num_tasks=n, num_processors=m, slack_factor=sf, seed=seed
        )
    ).generate()


class TestWorkerFailure:
    def test_fail_surrenders_queue_and_loses_running(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0), now=0.0)
        worker.deliver(_entry(1), now=0.0)
        worker.deliver(_entry(2), now=0.0)
        worker.start_next(0.0)
        lost, survivors = worker.fail(5.0)
        assert lost.task.task_id == 0
        assert [w.task.task_id for w in survivors] == [1, 2]
        assert worker.failed
        assert not worker.is_busy and not worker.queue

    def test_failed_worker_reports_infinite_load(self):
        worker = WorkerProcessor(0)
        worker.fail(0.0)
        assert worker.load(0.0) == float("inf")

    def test_failed_worker_rejects_delivery_and_start(self):
        worker = WorkerProcessor(0)
        worker.fail(0.0)
        with pytest.raises(RuntimeError):
            worker.deliver(_entry(0), now=1.0)
        assert worker.start_next(1.0) is None

    def test_double_failure_raises(self):
        worker = WorkerProcessor(0)
        worker.fail(0.0)
        with pytest.raises(RuntimeError):
            worker.fail(1.0)

    def test_busy_time_accounts_partial_run(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0), now=0.0)
        worker.start_next(0.0)
        worker.fail(4.0)
        assert worker.busy_time == pytest.approx(4.0)


class TestRuntimeFailures:
    """Fail-stop accounting on the paper's machine: one host, 4 workers."""

    #: How many scheduling domains the 4 workers are split into.
    domains = 1

    def _run(self, scheduler_cls=RTSADS, failures=(), tasks=None, **kwargs):
        comm = UniformCommunicationModel(20.0)
        assignment = partition_workers(4, self.domains)
        return DistributedRuntime(
            schedulers=[scheduler_cls(comm) for _ in assignment.domains],
            assignment=assignment,
            workload=tasks or list(_workload(**kwargs)),
            remote_cost=comm.remote_cost,
            failures=list(failures),
            validate_phases=True,
        ).run()

    def test_in_flight_task_marked_failed(self):
        result = self._run(failures=[(50.0, 0)])
        failed = [
            record for record in result.trace.records.values()
            if record.status == FAILED
        ]
        assert len(failed) == result.failed <= 1  # at most the in-flight task
        for record in failed:
            assert not record.guaranteed
            assert not record.met_deadline

    def test_queued_tasks_rescheduled_elsewhere(self):
        result = self._run(failures=[(30.0, 0)])
        for record in result.trace.records.values():
            if record.status == COMPLETED:
                assert record.processor != 0 or (
                    record.finished_at is not None
                    and record.finished_at <= 30.0 + 1e-9
                )

    def test_theorem_survives_failures(self):
        result = self._run(failures=[(40.0, 0), (90.0, 2)])
        assert result.trace.scheduled_but_missed() == []

    def test_theorem_survives_failures_dcols(self):
        result = self._run(scheduler_cls=DCOLS, failures=[(40.0, 1)])
        assert result.trace.scheduled_but_missed() == []

    def test_compliance_degrades_gracefully(self):
        healthy = self._run()
        crashed = self._run(failures=[(50.0, 0)])
        assert crashed.hit_ratio <= healthy.hit_ratio
        # Losing 1 of 4 processors mid-run must not collapse compliance.
        assert crashed.hit_ratio > 0.5 * healthy.hit_ratio

    def test_all_processors_failing_expires_everything(self):
        result = self._run(
            failures=[(1.0, p) for p in range(4)], n=10, sf=1.5
        )
        for record in result.trace.records.values():
            assert record.status in (
                COMPLETED,
                EXPIRED,
                FAILED,
            )
        # Nothing can complete after t=1 on a dead machine.
        late_finishes = [
            r
            for r in result.trace.records.values()
            if r.finished_at is not None and r.finished_at > 1.0
        ]
        assert late_finishes == []

    def test_duplicate_failure_events_tolerated(self):
        result = self._run(failures=[(40.0, 0), (60.0, 0)])
        assert result.total_tasks == 50

    def test_failure_validation(self):
        with pytest.raises(ValueError):
            self._run(failures=[(1.0, 9)])
        with pytest.raises(ValueError):
            self._run(failures=[(-1.0, 0)])

    @pytest.mark.parametrize("at", [math.nan, math.inf, -1.0])
    def test_failure_time_must_be_finite_and_non_negative(self, at):
        # A NaN time would corrupt the event heap's order; an infinite one
        # would end the run at makespan inf.
        with pytest.raises(ValueError, match="failure time"):
            self._run(failures=[(at, 0)])


class TestRuntimeFailuresTwoDomains(TestRuntimeFailures):
    """The same assertions with the 4 workers under two hosts."""

    domains = 2

    def test_surrendered_work_is_requeued_in_its_original_form(self):
        """A dead worker's queue returns as the tasks that arrived.

        Domain 0 owns workers (0, 2), so its queued copies carry
        slot-space affinities.  Task 1 (affine to workers 0 and 2) waits
        behind task 0 on P0 when P0 dies; requeued as the original it
        re-projects onto P2's slot and runs there free of charge, whereas
        the queued copy would be projected a second time, lose P2, and pay
        the remote cost.
        """
        assert partition_workers(4, self.domains).workers_of(0) == (0, 2)
        tasks = [
            make_task(0, 30.0, 400.0, affinity=[0]),
            make_task(1, 10.0, 500.0, affinity=[0, 2]),
            make_task(2, 40.0, 410.0, affinity=[2]),
        ]
        healthy = self._run(tasks=tasks).trace.records[1]
        assert healthy.processor == 0
        assert healthy.started_at > healthy.delivered_at  # queued behind task 0
        crashed = self._run(
            tasks=tasks, failures=[(healthy.delivered_at + 1.0, 0)]
        )
        record = crashed.trace.records[1]
        assert crashed.reschedules == 1
        assert record.processor == 2
        assert record.planned_cost == pytest.approx(10.0)
        assert record.status == COMPLETED

    def test_declined_entries_are_requeued_in_their_original_form(self):
        """A phase in flight when a worker dies has its entries declined.

        Domain 1 of an 8-worker machine owns workers (1, 3, 5, 7).  It
        searches at t=0 and delivers at the phase's end; P5 dies in
        between, so the entries placed on it are declined at delivery.
        Every task is affine to workers 1 and 5 only and cannot afford the
        remote cost: requeued as the schedule's slot-space copies (affinity
        {0, 2}) they would be projected a second time, onto nothing, and
        expire; requeued as the originals they all run on P1.
        """
        assignment = partition_workers(8, self.domains)
        assert assignment.workers_of(1) == (1, 3, 5, 7)
        comm = UniformCommunicationModel(50.0)
        tasks = [make_task(i, 10.0, 55.0, affinity=[1, 5]) for i in range(4)]
        result = DistributedRuntime(
            schedulers=[RTSADS(comm) for _ in assignment.domains],
            assignment=assignment,
            workload=tasks,
            remote_cost=comm.remote_cost,
            failures=[(1e-6, 5)],
            router=lambda task: 1,
        ).run()
        first = result.phases[0]
        assert first.delivered < first.scheduled  # the decline happened
        for record in result.trace.records.values():
            assert record.status == COMPLETED
            assert record.processor == 1
            assert record.planned_cost == pytest.approx(10.0)


class TestRequeueIsTraced:
    """A dead processor's queued work is requeued through the ledger: one
    ``surrendered`` transition each, the live master's spelling."""

    def _traced(self):
        from repro.experiments import ExperimentConfig, run_once
        from repro.observability import (
            Instrumentation,
            MemorySink,
            instrumented,
        )
        from repro.runtime.sim import SimBackend

        config = ExperimentConfig.quick(
            num_transactions=120, num_processors=4, slack_factor=1.5
        )
        obs = Instrumentation(sink=MemorySink())
        with instrumented(obs):
            report = run_once(
                config, "rtsads", 7,
                backend=SimBackend(failures=[(200.0, 1)]),
            )
        return report, obs.sink.events

    def test_every_reschedule_is_one_surrendered_event(self):
        report, events = self._traced()
        surrendered = [
            e for e in events
            if e["event"] == "task" and e["transition"] == "surrendered"
        ]
        assert len(surrendered) == report.reschedules > 0
        assert {e["processor"] for e in surrendered} == {1}
        report.check_balance()

    def test_requeued_then_missed_is_blamed_on_the_failure(self):
        from repro.observability import attribute_misses
        from repro.observability.analyze import (
            CAUSE_WORKER_FAILURE,
            build_timelines,
        )

        report, events = self._traced()
        requeued = {
            task_id
            for task_id, timeline in build_timelines(events).items()
            if timeline.has("surrendered")
        }
        attribution = attribute_misses(events)
        blamed = [m for m in attribution.misses if m.task_id in requeued]
        assert blamed, "the cell must miss some requeued tasks"
        assert {m.cause for m in blamed} == {CAUSE_WORKER_FAILURE}
        # Analysis and report agree on every outcome of the run.
        outcomes = attribution.outcomes
        assert outcomes["met"] + outcomes["late"] == report.completed
        assert outcomes["expired"] == report.expired
        assert outcomes["failed"] == report.failed
