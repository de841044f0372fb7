"""Tests for the worker-processor model."""

import pytest

from repro.core import ScheduleEntry, make_task
from repro.simulator import WorkerProcessor


def _entry(task_id, p=10.0, comm=0.0, deadline=1000.0):
    task = make_task(task_id, processing_time=p, deadline=deadline)
    return ScheduleEntry(
        task=task, processor=0, communication_cost=comm, scheduled_end=p + comm
    )


class TestQueueing:
    def test_starts_idle_and_empty(self):
        worker = WorkerProcessor(0)
        assert not worker.is_busy and not worker.queue
        assert not worker.is_busy
        assert worker.load(0.0) == 0.0

    def test_deliver_enqueues_fifo(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0), now=1.0)
        worker.deliver(_entry(1), now=1.0)
        assert [w.task.task_id for w in worker.queue] == [0, 1]
        assert worker.queue  # queued work pending

    def test_load_sums_queue_and_running_remainder(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0), now=0.0)
        worker.deliver(_entry(1, p=20.0), now=0.0)
        worker.start_next(0.0)
        # At t=4: 6 left of the running task plus 20 queued.
        assert worker.load(4.0) == pytest.approx(26.0)

    def test_load_includes_communication_cost(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0, comm=5.0), now=0.0)
        assert worker.load(0.0) == 15.0


class TestExecution:
    def test_start_next_runs_fifo_order(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0), now=0.0)
        worker.deliver(_entry(1, p=5.0), now=0.0)
        running = worker.start_next(0.0)
        assert running.task.task_id == 0
        assert running.finishes_at == 10.0

    def test_start_next_noop_when_busy(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0), now=0.0)
        worker.deliver(_entry(1), now=0.0)
        worker.start_next(0.0)
        assert worker.start_next(0.0) is None

    def test_start_next_noop_when_empty(self):
        assert WorkerProcessor(0).start_next(0.0) is None

    def test_complete_current(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0), now=0.0)
        worker.start_next(0.0)
        finished = worker.complete_current(10.0)
        assert finished.task.task_id == 0
        assert not worker.is_busy and not worker.queue
        assert worker.completed_count == 1
        assert worker.busy_time == 10.0

    def test_complete_at_wrong_time_raises(self):
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0), now=0.0)
        worker.start_next(0.0)
        with pytest.raises(RuntimeError):
            worker.complete_current(9.0)

    def test_complete_without_running_raises(self):
        with pytest.raises(RuntimeError):
            WorkerProcessor(0).complete_current(0.0)

    def test_non_preemptive_execution(self):
        """A delivered entry cannot jump ahead of the running task."""
        worker = WorkerProcessor(0)
        worker.deliver(_entry(0, p=10.0), now=0.0)
        worker.start_next(0.0)
        worker.deliver(_entry(1, p=1.0, deadline=5.0), now=1.0)
        # Still the original task running.
        assert worker.running.task.task_id == 0
        finished = worker.complete_current(10.0)
        assert finished.task.task_id == 0
        nxt = worker.start_next(10.0)
        assert nxt.task.task_id == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerProcessor(-1)
