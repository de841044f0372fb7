"""The backend-neutral scheduling loop shared by every runtime.

The paper's on-line cycle (Section 4) — form ``Batch(j)`` from leftovers
plus new arrivals, evict hopeless deadlines, allocate ``Q_s(j)``, search
for a feasible partial schedule, deliver it at ``t_e = t_s + sigma_j`` —
is the same whether "time" is a virtual event clock (the simulator) or
the wall clock (the live TCP cluster).  What differs is only *how* the
environment answers a handful of questions: what is each processor's
current load, and how does a schedule entry physically reach its
processor.

:class:`PhaseDriver` owns everything backend-independent — admission,
expiry, quantum allocation, the feasibility search call, delivery-time
batch bookkeeping, and failure remap — and asks a :class:`PhaseHooks`
implementation (the concrete runtime) for the rest.  It keeps no task
counters: what it decides about a task (expired, requeued) it posts to
the run's :class:`~repro.runtime.ledger.TaskLedger`, where the hooks post
their placements too.
Both the simulator's :class:`~repro.simulator.runtime.DomainHost` (one per
scheduling domain of a :class:`~repro.simulator.runtime.DistributedRuntime`)
and :class:`~repro.cluster.master.ClusterMaster` are thin hook objects
around one driver instance.

Two admission styles are supported because the two time models need them:

* **event-driven** (:meth:`PhaseDriver.admit`): the simulator's engine
  delivers one ``TaskArrived`` event per task at exactly its arrival time;
* **time-driven** (:meth:`PhaseDriver.stage_arrivals` +
  the automatic :meth:`admit_due` inside :meth:`open_phase`): the live
  master polls a wall clock and admits everything whose arrival time has
  passed since the last poll.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.batch import Batch
from ..core.scheduler import Scheduler
from ..core.task import Task
from .ledger import EXPIRED, TaskLedger


@dataclass
class PhaseTrace:
    """Summary of one scheduling phase, recorded by the driver.

    ``scheduled`` counts the entries the search placed; ``delivered``
    counts how many of those the backend actually accepted (a simulated
    processor may have crashed between phase start and delivery, a live
    dispatch may fail its wall-clock guarantee re-check).
    """

    index: int
    start: float
    quantum: float
    time_used: float
    batch_size: int
    scheduled: int
    expired_before: int
    dead_end: bool
    complete: bool
    max_depth: int
    processors_touched: int
    vertices_generated: int
    delivered: int = 0

    @property
    def end(self) -> float:
        """Phase end on the run's clock (virtual quanta on the simulator)."""
        return self.start + self.time_used


@dataclass
class OpenPhase:
    """An in-flight phase: search finished, schedule not yet delivered.

    The simulator holds one of these for the duration ``sigma_j`` between
    phase start and the ``ScheduleDelivered`` event; the live master
    delivers immediately.
    """

    result: object  # core.phase.PhaseResult
    index: int
    expired_before: int


class PhaseHooks:
    """What a concrete runtime must answer for the driver.

    Subclass (or duck-type) and override; :meth:`transform_batch` has an
    identity default because only a host that sees part of the machine —
    a sharded simulator domain, a live master after a loss or a late join —
    needs it, and each such host answers it with its
    :class:`~repro.core.affinity.Projection`.
    """

    #: Fields stamped on the ``task`` events the driver posts on this
    #: backend's behalf (a sharded simulator host's ``domain``).
    tag: Dict[str, object] = {}

    def loads(self, now: float) -> List[float]:
        """Current per-processor load ``Load_k`` in cost units.

        Return an empty list to signal *no capacity at all* (every live
        worker dead); the driver then skips the phase entirely.
        """
        raise NotImplementedError

    def transform_batch(
        self, tasks: List[Task], now: float
    ) -> List[Task]:
        """Map batch tasks into the scheduler's processor index space.

        Element-wise: the result stands in for ``tasks`` position by
        position with ids, deadlines and processing times untouched, so the
        driver carries the batch's EDF order over to it unsorted.
        """
        return tasks

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        """Physically deliver one schedule entry; True iff it was accepted.

        An accepting backend posts the placement
        (:meth:`~repro.runtime.ledger.TaskLedger.place`) with what only it
        knows: the global processor id and its own clock reading.
        A declined entry (processor died mid-phase, dispatch-time
        guarantee re-check failed) is returned to the pending set by the
        driver and re-enters the batch at the next phase start.
        """
        raise NotImplementedError


class PhaseDriver:
    """Runs the paper's phase loop over any :class:`PhaseHooks` backend."""

    def __init__(
        self, scheduler: Scheduler, hooks: PhaseHooks, ledger: TaskLedger
    ) -> None:
        self.scheduler = scheduler
        self.hooks = hooks
        #: Where every task this driver schedules has its record.
        self.ledger = ledger
        self.batch = Batch()
        #: Phase summaries in completion order.
        self.phases: List[PhaseTrace] = []
        self._pending: List[Task] = []
        self._arrivals: List[Task] = []
        self._next_arrival = 0
        self._open: Optional[OpenPhase] = None
        self.workers_lost = 0

    # ----- admission --------------------------------------------------------

    def admit(self, tasks: Sequence[Task]) -> None:
        """Event-driven admission: tasks join the next batch formation."""
        self._pending.extend(tasks)

    def stage_arrivals(self, tasks: Sequence[Task]) -> None:
        """Time-driven admission: register the full future arrival stream."""
        self._arrivals = sorted(
            tasks, key=lambda t: (t.arrival_time, t.task_id)
        )
        self._next_arrival = 0

    def _admit_due(self, now: float) -> None:
        """Move every staged task whose arrival time has passed to pending."""
        while self._next_arrival < len(self._arrivals):
            task = self._arrivals[self._next_arrival]
            if task.arrival_time > now:
                break
            self._pending.append(task)
            self._next_arrival += 1

    def arrivals_exhausted(self) -> bool:
        """True once every staged arrival has been admitted to pending."""
        return self._next_arrival >= len(self._arrivals)

    # ----- failure remap ----------------------------------------------------

    def worker_lost(self) -> None:
        """Count one fail-stopped worker (live cluster failure path)."""
        self.workers_lost += 1

    def withdraw(self, task_ids: Sequence[int]) -> List[Task]:
        """Shed admitted-but-undispatched tasks (service overload policies).

        Removes the named tasks from the pending set and the current batch
        and returns the :class:`~repro.core.task.Task` objects actually
        withdrawn.  Ids that are not waiting (already dispatched, expired,
        or unknown) are silently skipped — the caller decides what that
        means (settle them as shed or surrendered, release them to a
        peer).  Withdrawn tasks carry no guarantee, so nothing is revoked.
        """
        wanted = set(task_ids)
        if not wanted:
            return []
        withdrawn: List[Task] = []
        kept: List[Task] = []
        for task in self._pending:
            if task.task_id in wanted:
                withdrawn.append(task)
            else:
                kept.append(task)
        self._pending = kept
        withdrawn.extend(self.batch.withdraw(wanted))
        return withdrawn

    def surrender(
        self, task_ids: Sequence[int], now: float, processor: int
    ) -> None:
        """Failure remap: requeue the work queued on lost ``processor``.

        Each task's guarantee is revoked — it must re-earn feasibility on
        the survivors through the normal phase path — and counted as a
        reschedule (:meth:`~repro.runtime.ledger.TaskLedger.requeue`).
        """
        tag = self.hooks.tag
        for task_id in task_ids:
            self._pending.append(
                self.ledger.requeue(task_id, now, processor, **tag)
            )

    # ----- the phase loop ---------------------------------------------------

    def open_phase(self, now: float) -> Optional[OpenPhase]:
        """Form ``Batch(j)``, evict expired tasks, run the search.

        Returns ``None`` when there is nothing schedulable (empty batch
        after expiry, or the backend reports zero capacity); otherwise the
        in-flight phase to hand back to :meth:`deliver_phase`.
        """
        self._admit_due(now)
        if self._pending:
            self.batch.add_arrivals(self._pending)
            self._pending.clear()
        expired = self.batch.drop_expired(now)
        for task in expired:
            self.ledger.settle(task.task_id, EXPIRED, now, **self.hooks.tag)
        if not self.batch:
            return None
        loads = self.hooks.loads(now)
        if not loads:
            return None  # no capacity; leftovers wait for the next phase
        order = self.batch.edf_order()
        batch_tasks = order.carried_to(self.hooks.transform_batch(order, now))
        quantum = self.scheduler.plan_quantum(batch_tasks, loads, now)
        result = self.scheduler.schedule_phase(
            batch_tasks, loads, now, quantum
        )
        opened = OpenPhase(
            result=result,
            index=self.batch.phase_index,
            expired_before=len(expired),
        )
        self._open = opened
        return opened

    def deliver_phase(self, opened: OpenPhase, now: float) -> PhaseTrace:
        """Deliver an open phase's schedule through the backend.

        Scheduled tasks leave the batch before delivery; the tasks of
        entries the backend declines return to pending (not to the
        just-advanced batch) as they were admitted, exactly like fresh
        arrivals — they re-enter at the next phase start and run back
        through transform_batch and the feasibility test.
        """
        result = opened.result
        self._open = None
        # What the batch held, entry by entry: ``entry.task`` may be the
        # hooks' transform_batch copy, whose affinity is in slot space.
        originals = self.batch.remove_scheduled(
            entry.task.task_id for entry in result.schedule
        )
        self.batch.advance_phase()
        delivered = 0
        for entry, original in zip(result.schedule, originals):
            if self.hooks.deliver_entry(entry, opened.index, now):
                delivered += 1
            else:
                self._pending.append(original)
        trace = PhaseTrace(
            index=opened.index,
            start=result.phase_start,
            quantum=result.quantum,
            time_used=result.time_used,
            # Batch(j) size at phase start: what was scheduled plus what
            # rolled over (pending arrivals merge only at phase start).
            batch_size=len(result.schedule) + len(self.batch),
            scheduled=len(result.schedule),
            expired_before=opened.expired_before,
            dead_end=result.stats.dead_end,
            complete=result.stats.complete,
            max_depth=result.stats.max_depth,
            processors_touched=result.stats.processors_touched,
            vertices_generated=result.stats.vertices_generated,
            delivered=delivered,
        )
        self.phases.append(trace)
        return trace

    def run_phase(self, now: float) -> Optional[PhaseTrace]:
        """Open and immediately deliver one phase (polling runtimes)."""
        opened = self.open_phase(now)
        if opened is None:
            return None
        return self.deliver_phase(opened, now)

    # ----- termination ------------------------------------------------------

    def has_backlog(self) -> bool:
        """Anything still owed a scheduling decision?"""
        return bool(
            self.batch
            or self._pending
            or self._open is not None
            or not self.arrivals_exhausted()
        )
