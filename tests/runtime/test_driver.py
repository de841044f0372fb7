"""The backend-neutral phase driver: the loop both runtimes delegate to."""

from __future__ import annotations

from typing import List

import pytest

from repro.core import RTSADS, Task, UniformCommunicationModel, make_task
from repro.core.affinity import Projection
from repro.observability import NULL_INSTRUMENTATION
from repro.runtime import PhaseDriver, PhaseHooks, TaskLedger, TaskRecord
from repro.runtime.ledger import EXPIRED, FAILED


class RecordingHooks(PhaseHooks):
    """A minimal in-memory backend: flat loads, scripted acceptance."""

    def __init__(self, num_processors: int = 2):
        self.num_processors = num_processors
        self.capacity = True
        self.declined_ids: set = set()
        self.delivered: List[int] = []
        self.ledger = TaskLedger(NULL_INSTRUMENTATION)

    def loads(self, now: float) -> List[float]:
        if not self.capacity:
            return []
        return [0.0] * self.num_processors

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        if entry.task.task_id in self.declined_ids:
            return False
        self.delivered.append(entry.task.task_id)
        self.ledger.place(entry, phase_index, now, entry.processor)
        return True

    @property
    def expired(self) -> List[int]:
        return [
            task_id for task_id, record in self.ledger.records.items()
            if record.status == EXPIRED
        ]


class LedgerDriver(PhaseDriver):
    """The driver under test, opening a record for whatever it admits."""

    def admit(self, tasks) -> None:
        for task in tasks:
            if task.task_id not in self.ledger.records:
                self.ledger.open(TaskRecord(task))
        super().admit(tasks)

    def stage_arrivals(self, tasks) -> None:
        for task in tasks:
            self.ledger.open(TaskRecord(task))
        super().stage_arrivals(tasks)


def make_driver(num_processors: int = 2, hooks=None):
    scheduler = RTSADS(
        comm=UniformCommunicationModel(remote_cost=5.0),
        per_vertex_cost=0.01,
    )
    hooks = hooks or RecordingHooks(num_processors=num_processors)
    return LedgerDriver(scheduler, hooks, hooks.ledger), hooks


def easy_tasks(n: int = 4) -> List[Task]:
    """Comfortably feasible: loose deadlines, affinity everywhere."""
    return [
        make_task(i, 10.0, 1000.0, affinity=[0, 1]) for i in range(n)
    ]


class TestAdmissionStyles:
    def test_event_driven_admit_feeds_next_phase(self):
        driver, hooks = make_driver()
        driver.admit(easy_tasks(3))
        trace = driver.run_phase(now=0.0)
        assert trace is not None
        assert trace.scheduled == 3
        assert trace.delivered == 3
        assert sorted(hooks.delivered) == [0, 1, 2]
        assert driver.ledger.guaranteed == 3
        assert not driver.has_backlog()

    def test_staged_arrivals_admit_only_when_due(self):
        driver, hooks = make_driver()
        early = make_task(0, 10.0, 1000.0, affinity=[0], arrival_time=0.0)
        late = make_task(1, 10.0, 2000.0, affinity=[1], arrival_time=50.0)
        driver.stage_arrivals([late, early])  # driver sorts by arrival
        trace = driver.run_phase(now=0.0)
        assert trace.scheduled == 1
        assert hooks.delivered == [0]
        assert not driver.arrivals_exhausted()
        assert driver.has_backlog()  # task 1 still owed a decision
        trace = driver.run_phase(now=60.0)
        assert trace.scheduled == 1
        assert hooks.delivered == [0, 1]
        assert driver.arrivals_exhausted()
        assert not driver.has_backlog()


class TestExpiry:
    def test_hopeless_deadline_is_evicted_through_the_hook(self):
        driver, hooks = make_driver()
        doomed = make_task(0, 10.0, 5.0, affinity=[0])
        fine = make_task(1, 10.0, 1000.0, affinity=[1])
        driver.admit([doomed, fine])
        trace = driver.run_phase(now=100.0)  # deadline 5 already past
        assert hooks.expired == [0]
        assert driver.ledger.settled[EXPIRED] == 1
        assert trace.expired_before == 1
        assert trace.scheduled == 1

    def test_everything_expired_yields_no_phase(self):
        driver, hooks = make_driver()
        driver.admit([make_task(0, 10.0, 5.0, affinity=[0])])
        assert driver.run_phase(now=100.0) is None
        assert hooks.expired == [0]
        assert not driver.has_backlog()


class TestDelivery:
    def test_declined_entry_requeues_as_pending(self):
        """A mid-phase decline (dead worker, failed dispatch re-check)
        returns the task to pending; it re-enters at the next phase."""
        driver, hooks = make_driver()
        hooks.declined_ids = {1}
        driver.admit(easy_tasks(3))
        trace = driver.run_phase(now=0.0)
        assert trace.scheduled == 3
        assert trace.delivered == 2
        assert driver.ledger.guaranteed == 2
        assert driver.has_backlog()
        hooks.declined_ids = set()
        trace = driver.run_phase(now=trace.end)
        assert trace.delivered == 1
        assert 1 in hooks.delivered
        assert driver.ledger.guaranteed == 3
        assert not driver.has_backlog()

    def test_declined_entry_requeues_the_task_as_admitted(self):
        """The schedule carries transform_batch's slot-space copy; what
        goes back to pending must be the admitted task, or the next phase
        projects a projection (affinity {1, 5} on workers (1, 3, 5, 7)
        came back as {0, 2}, then as the empty set)."""

        class SlotSpaceHooks(RecordingHooks):
            def __init__(self):
                super().__init__(num_processors=4)
                self.view = Projection((1, 3, 5, 7), 8)
                self.batches = []

            def transform_batch(self, tasks, now):
                self.batches.append(list(tasks))
                return self.view.project(tasks)

        driver, hooks = make_driver(hooks=SlotSpaceHooks())
        task = make_task(0, 10.0, 1000.0, affinity=[1, 5])
        hooks.declined_ids = {0}
        driver.admit([task])
        trace = driver.run_phase(now=0.0)
        assert (trace.scheduled, trace.delivered) == (1, 0)
        hooks.declined_ids = set()
        trace = driver.run_phase(now=trace.end)
        assert trace.delivered == 1
        assert [batch[0] for batch in hooks.batches] == [task, task]
        assert hooks.batches[1][0] is task

    def test_zero_capacity_skips_phase_and_keeps_batch(self):
        driver, hooks = make_driver()
        hooks.capacity = False
        driver.admit(easy_tasks(2))
        assert driver.run_phase(now=0.0) is None
        assert driver.has_backlog()
        hooks.capacity = True
        trace = driver.run_phase(now=1.0)
        assert trace.delivered == 2
        assert not driver.has_backlog()

    def test_open_phase_counts_as_backlog_until_delivered(self):
        driver, hooks = make_driver()
        driver.admit(easy_tasks(1))
        opened = driver.open_phase(now=0.0)
        assert opened is not None
        assert driver.has_backlog()
        driver.deliver_phase(opened, now=opened.result.phase_end)
        assert not driver.has_backlog()


class TestFailureRemap:
    def test_surrender_revokes_guarantees_and_requeues(self):
        driver, hooks = make_driver()
        tasks = easy_tasks(3)
        driver.admit(tasks)
        driver.run_phase(now=0.0)
        assert driver.ledger.guaranteed == 3

        driver.worker_lost()
        driver.surrender([0, 1], now=5.0, processor=0)
        assert driver.workers_lost == 1
        assert driver.ledger.reschedules == 2
        assert driver.ledger.guaranteed == 1
        assert driver.has_backlog()

        trace = driver.run_phase(now=10.0)
        assert trace.delivered == 2
        assert driver.ledger.guaranteed == 3

    def test_revoke_voids_without_requeueing(self):
        """A task lost in flight settles as failed: its guarantee is
        voided by the settlement and nothing re-enters the batch."""
        driver, hooks = make_driver()
        driver.admit(easy_tasks(1))
        driver.run_phase(now=0.0)
        driver.ledger.settle(0, FAILED, 5.0)
        assert driver.ledger.guaranteed == 0
        assert not driver.has_backlog()


class TestTrace:
    def test_phase_indices_and_batch_sizes_accumulate(self):
        driver, hooks = make_driver()
        driver.admit(easy_tasks(2))
        first = driver.run_phase(now=0.0)
        driver.admit(easy_tasks(2)[:1])
        second = driver.run_phase(now=first.end)
        assert [p.index for p in driver.phases] == [first.index, second.index]
        assert second.index == first.index + 1
        assert first.batch_size == 2
        assert first.end == pytest.approx(first.start + first.time_used)


class TestWithdraw:
    def test_withdraw_pending_before_any_phase(self):
        driver, hooks = make_driver()
        driver.admit(easy_tasks(3))
        withdrawn = driver.withdraw([1])
        assert [t.task_id for t in withdrawn] == [1]
        trace = driver.run_phase(now=0.0)
        assert trace is not None
        assert 1 not in hooks.delivered
        assert sorted(hooks.delivered) == [0, 2]

    def test_withdraw_from_batch_backlog(self):
        driver, hooks = make_driver()
        hooks.capacity = False  # no loads -> tasks stay in the batch
        driver.admit(easy_tasks(2))
        driver.run_phase(now=0.0)
        withdrawn = driver.withdraw([0, 1])
        assert {t.task_id for t in withdrawn} == {0, 1}
        assert not driver.has_backlog()

    def test_withdraw_unknown_id_is_empty(self):
        driver, _ = make_driver()
        driver.admit(easy_tasks(1))
        assert driver.withdraw([42]) == []

    def test_withdrawn_never_counts_as_scheduled(self):
        driver, hooks = make_driver()
        # Fold the tasks into the batch first (no capacity -> no schedule),
        # so the withdrawal hits the batch accounting, not the pending set.
        hooks.capacity = False
        driver.admit(easy_tasks(2))
        driver.run_phase(now=0.0)
        hooks.capacity = True
        driver.withdraw([0])
        driver.run_phase(now=0.0)
        assert driver.batch.total_withdrawn == 1
        assert driver.batch.total_scheduled == 1
        assert hooks.delivered == [1]
