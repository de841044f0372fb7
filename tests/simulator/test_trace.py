"""Tests for a finished run's trace: the task ledger's records and views
(``report.trace``) and the report's phase aggregates."""

import pytest

from repro.core import make_task
from repro.core.schedule import ScheduleEntry
from repro.observability import NULL_INSTRUMENTATION
from repro.runtime import PhaseTrace, RunReport, TaskLedger, TaskRecord
from repro.runtime.ledger import COMPLETED, EXPIRED


def _trace_with(records):
    """records: list of (task, status, processor, phase, finished_at).

    Every record gets there through the ledger's own transitions.
    """
    trace = TaskLedger(NULL_INSTRUMENTATION)
    for task, status, processor, phase, finished in records:
        trace.open(TaskRecord(task))
        if finished is None:
            trace.settle(task.task_id, status, 0.0)
            continue
        entry = ScheduleEntry(task, 0, 0.0, task.processing_time)
        trace.place(entry, phase, 0.0, processor)
        trace.start(task.task_id, finished - task.processing_time, processor)
        trace.settle(task.task_id, status, finished)
    return trace


def _report(trace=None, phases=()):
    """The report of a run booked on ``trace`` with the given phases."""
    return RunReport.from_ledgers(
        [trace or TaskLedger(NULL_INSTRUMENTATION)],
        backend="sim", scheduler_name="rtsads", num_workers=2, seed=0,
        workers_lost=0, makespan=0.0, wall_seconds=0.0, phases=list(phases),
    )


def _task(task_id, p=10.0, d=100.0):
    return make_task(task_id, processing_time=p, deadline=d)


class TestTaskRecord:
    def test_met_deadline(self):
        trace = _trace_with([
            (_task(0, d=100.0), COMPLETED, 0, 0, 99.0),
            (_task(1, d=100.0), COMPLETED, 0, 0, 101.0),
        ])
        assert trace.records[0].met_deadline
        assert not trace.records[1].met_deadline

    def test_boundary_finish_meets_deadline(self):
        trace = _trace_with([
            (_task(0, d=100.0), COMPLETED, 0, 0, 100.0),
        ])
        assert trace.records[0].met_deadline

    def test_expired_never_meets(self):
        trace = _trace_with([
            (_task(0), EXPIRED, None, None, None),
        ])
        assert not trace.records[0].met_deadline

    def test_duplicate_task_rejected(self):
        trace = TaskLedger(NULL_INSTRUMENTATION)
        trace.open(TaskRecord(_task(0)))
        with pytest.raises(ValueError):
            trace.open(TaskRecord(_task(0)))


class TestAggregates:
    def _mixed_trace(self):
        return _trace_with([
            (_task(0, d=100.0), COMPLETED, 0, 0, 50.0),
            (_task(1, d=100.0), COMPLETED, 1, 0, 120.0),  # late
            (_task(2, d=100.0), EXPIRED, None, None, None),
            (_task(3, d=100.0), COMPLETED, 0, 1, 80.0),
        ])

    def test_hit_ratio(self):
        assert _report(self._mixed_trace()).hit_ratio == 0.5

    def test_hit_ratio_empty(self):
        assert _report().hit_ratio == 0.0

    def test_completed_and_expired(self):
        trace = self._mixed_trace()
        assert trace.settled[COMPLETED] == 3
        assert trace.settled[EXPIRED] == 1
        report = _report(trace)
        assert (report.completed, report.expired) == (3, 1)
        assert report.completed_late == report.guaranteed_violations == 1
        report.check_balance()

    def test_scheduled_but_missed_finds_theorem_violations(self):
        trace = self._mixed_trace()
        violators = trace.scheduled_but_missed()
        assert [r.task_id for r in violators] == [1]

    def test_gantt_lanes_sorted_by_start(self):
        trace = self._mixed_trace()
        lanes = trace.gantt()
        assert set(lanes) == {0, 1}
        starts = [start for _, start, _ in lanes[0]]
        assert starts == sorted(starts)


class TestPhaseAggregates:
    def _phase(self, index, dead_end=False, depth=3, touched=2):
        return PhaseTrace(
            index=index,
            start=float(index),
            quantum=5.0,
            time_used=2.0,
            batch_size=10,
            scheduled=depth,
            expired_before=0,
            dead_end=dead_end,
            complete=False,
            max_depth=depth,
            processors_touched=touched,
            vertices_generated=40,
        )

    def test_dead_end_rate(self):
        report = _report(
            phases=[self._phase(0, dead_end=True), self._phase(1)]
        )
        assert report.dead_end_rate == 0.5

    def test_dead_end_rate_empty(self):
        assert _report().dead_end_rate == 0.0

    def test_mean_depth_and_processors(self):
        report = _report(
            phases=[
                self._phase(0, depth=2, touched=1),
                self._phase(1, depth=4, touched=3),
            ]
        )
        assert report.mean_depth == 3.0
        assert report.mean_processors_touched == 2.0

    def test_total_scheduling_time(self):
        report = _report(phases=[self._phase(0), self._phase(1)])
        assert report.total_scheduling_time == 4.0

    def test_phase_end(self):
        phase = self._phase(0)
        assert phase.end == 2.0
