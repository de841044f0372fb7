"""The task ledger: one record type, one status vocabulary, one writer.

The paper's two claims are statements about task outcomes — every task
RT-SADS schedules meets its deadline, and deadline compliance is the one
metric — so a task's lifecycle is booked once, here, whatever executes it.
A :class:`TaskLedger` holds one :class:`TaskRecord` per task a run owns
and is the only code that changes a record's status.  Each method does, in
one place, everything a transition entails: change the record, keep the
run's counts incrementally (each O(1) per transition), bump
``runtime_task_transitions{transition=}``, emit the ``task`` trace event
behind the ``obs.enabled`` guard, and tell the one
:attr:`TaskLedger.observer` (the service front keeps its books there).

The simulator's runtime shares one ledger among its ``k`` hosts; each
live master has its own.  Who posts which transition on which backend is
one table in docs/ARCHITECTURE.md ("The task ledger"), and every counted
field of a :class:`~repro.runtime.report.RunReport` is a count kept here.

Counts outlive records: a service prunes a record once its RESULT is sent
and a live migration hands the task to the accepting peer
(:meth:`TaskLedger.release` here, :meth:`TaskLedger.open` there), and the
conservation law ``opened == sum(settled) + still open`` holds through
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.feasibility import EPSILON
from ..core.task import Task

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.schedule import ScheduleEntry
    from ..observability import Instrumentation
    from .driver import PhaseTrace

# ----- the status vocabulary -------------------------------------------------

PENDING = "pending"  # owned by a host, owed a scheduling decision
DELIVERED = "delivered"  # on a processor's queue under a guarantee
COMPLETED = "completed"
EXPIRED = "expired"  # dropped from a batch, deadline already hopeless
FAILED = "failed"  # in flight on a processor that crashed
SHED = "shed"  # withdrawn by an overload policy (service)
SURRENDERED = "surrendered"  # still open when a drain's grace ran out

#: Statuses a record never leaves.
TERMINAL = (COMPLETED, EXPIRED, FAILED, SHED, SURRENDERED)

# ----- the trace vocabulary (``transition`` of a ``task`` event) -------------

#: A terminal status is traced under its own name, except that a
#: completion has always been spelled ``finished``.
TERMINAL_TRANSITIONS = ("finished",) + TERMINAL[1:]
#: The two spellings of the step into ``DELIVERED``: the simulator's and
#: the live masters'.  Recorded traces of both must stay readable, so
#: neither is renamed.
PLACED_TRANSITIONS = SIM_PLACED, LIVE_PLACED = ("delivered", "dispatched")
#: Transitions that mark a moment without changing the record's status.
NOTE_TRANSITIONS = (
    "arrived",
    "admitted",
    "started",
    "dispatch_rejected",
    "migration_offered",
    "migrated",
    "migration_declined",
)
#: Everything a ledger ever writes into ``transition``.
TRANSITIONS = NOTE_TRANSITIONS + PLACED_TRANSITIONS + TERMINAL_TRANSITIONS


class LedgerError(RuntimeError):
    """A transition the lifecycle does not allow (e.g. settling twice)."""


@dataclass
class TaskRecord:
    """Lifecycle of one task through the on-line system, on any backend."""

    task: Task
    status: str = PENDING
    processor: Optional[int] = None  # global worker id
    scheduled_phase: Optional[int] = None
    delivered_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    planned_cost: Optional[float] = None  # worst case the scheduler budgeted
    actual_cost: Optional[float] = None  # what execution really consumed
    #: Delivered under a guarantee that has not been revoked since.
    guaranteed: bool = False
    reschedules: int = 0
    #: Template to stamp on ASSIGN frames; the wire default (``-1`` = "the
    #: task id *is* the template id") is right for a batch workload's own
    #: tasks, the service mints records that name their template.
    template_id: int = -1

    @property
    def task_id(self) -> int:
        """The id of the task this record follows."""
        return self.task.task_id

    @property
    def met_deadline(self) -> bool:
        """The deadline-compliance predicate of the paper's metric."""
        return (
            self.status == COMPLETED
            and self.finished_at is not None
            and self.finished_at <= self.task.deadline + EPSILON
        )

    @property
    def reclaimed_time(self) -> float:
        """Worst-case time the task did not consume (early completion)."""
        if self.planned_cost is None or self.actual_cost is None:
            return 0.0
        return max(0.0, self.planned_cost - self.actual_cost)


def _settled_fields(record: TaskRecord, extra: Dict) -> Dict:
    """What the ``task`` event of a terminal transition carries."""
    task = record.task
    if record.status == COMPLETED:
        return dict(
            processor=record.processor,
            met_deadline=record.met_deadline,
            deadline=task.deadline,
            **extra,
        )
    if record.status == EXPIRED:
        return dict(deadline=task.deadline, arrival=task.arrival_time, **extra)
    if record.status == FAILED:
        return dict(processor=record.processor, **extra)
    return dict(deadline=task.deadline, **extra, met_deadline=False)


class TaskLedger:
    """Every task record of one run (or one live master) and its counts."""

    def __init__(
        self,
        obs: "Instrumentation",
        placed_as: str = SIM_PLACED,
        observer: Optional[object] = None,
    ) -> None:
        self.obs = obs
        #: Which of :data:`PLACED_TRANSITIONS` this backend's traces use.
        self.placed_as = placed_as
        #: Follows the four status transitions: its ``open``, ``place``,
        #: ``requeue`` and ``settle`` are each called with the record once
        #: that transition is booked.  ``None`` on every batch backend.
        self.observer = observer
        self.records: Dict[int, TaskRecord] = {}
        #: The run's phases in start order (the simulator fills this in).
        self.phases: List["PhaseTrace"] = []
        #: Tasks this ledger took ownership of (opened minus released).
        self.opened = 0
        #: Offered tasks turned away at the door: counted, never recorded.
        self.rejected = 0
        #: Terminal status -> how many records reached it.
        self.settled: Dict[str, int] = dict.fromkeys(TERMINAL, 0)
        self.deadline_hits = 0
        #: Records delivered under a currently unrevoked guarantee.
        self.guaranteed = 0
        #: Completions that finished late under an unrevoked guarantee —
        #: what the paper's theorem says never happens.
        self.guaranteed_violations = 0
        self.reschedules = 0
        #: Latest completion time seen.
        self.last_finish = 0.0

    @property
    def still_open(self) -> int:
        """Owned tasks that have not reached a terminal status."""
        return self.opened - sum(self.settled.values())

    # ----- transitions ------------------------------------------------------

    def open(self, record: TaskRecord) -> None:
        """Take ownership of a task: a closed workload's up front, a
        submission on acceptance, a migrated task at the accepting peer."""
        if record.task_id in self.records:
            raise ValueError(f"task {record.task_id} already on the ledger")
        self.records[record.task_id] = record
        self.opened += 1
        if self.observer is not None:
            self.observer.open(record)

    def reject(self) -> None:
        """Count one offered task that was refused admission."""
        self.rejected += 1

    def release(self, task_id: int) -> Optional[TaskRecord]:
        """Hand a task to a peer ledger: drop the record and the claim."""
        record = self.records.pop(task_id, None)
        if record is not None:
            self.opened -= 1
        return record

    def note(self, transition: str, task_id: int, t: float, **fields) -> None:
        """Trace a moment that changes no status (:data:`NOTE_TRANSITIONS`)."""
        if self.obs.enabled:
            if transition not in NOTE_TRANSITIONS:
                raise LedgerError(f"{transition!r} is not a note transition")
            self._emit(transition, task_id, t, **fields)

    def start(self, task_id: int, t: float, processor: int) -> None:
        """Execution began (the simulator sees it; live workers trace it)."""
        self.records[task_id].started_at = t
        self.note("started", task_id, t, processor=processor)

    def place(
        self,
        entry: "ScheduleEntry",
        phase: int,
        t: float,
        processor: int,
        actual_cost: Optional[float] = None,
        **tag: object,
    ) -> None:
        """One schedule entry reached ``processor``'s queue, guaranteed."""
        task = entry.task
        record = self.records[task.task_id]
        record.status = DELIVERED
        record.processor = processor
        record.scheduled_phase = phase
        record.delivered_at = t
        record.planned_cost = entry.total_cost
        record.actual_cost = actual_cost
        record.guaranteed = True
        self.guaranteed += 1
        if self.obs.enabled:
            self._emit(
                self.placed_as,
                task.task_id,
                t,
                processor=processor,
                phase=phase,
                arrival=task.arrival_time,
                deadline=task.deadline,
                planned_cost=entry.total_cost,
                **tag,
            )
        if self.observer is not None:
            self.observer.place(record)

    def requeue(
        self, task_id: int, t: float, processor: int, **tag: object
    ) -> Task:
        """A lost processor's queued task returns to ``PENDING``.

        The guarantee dies with the processor; the task must re-earn
        feasibility on the survivors.  Returns the task as admitted (the
        queued copy may carry a host-projected affinity).
        """
        record = self.records[task_id]
        self._revoke(record)
        record.status = PENDING
        record.processor = None
        record.scheduled_phase = None
        record.delivered_at = None
        record.planned_cost = None
        record.actual_cost = None
        record.reschedules += 1
        self.reschedules += 1
        if self.obs.enabled:
            # The live master's name for it; a re-placement afterwards
            # tells it from the drain's terminal ``surrendered``.
            self._emit(
                SURRENDERED, task_id, t,
                processor=processor, deadline=record.task.deadline, **tag,
            )
        if self.observer is not None:
            self.observer.requeue(record)
        return record.task

    def settle(
        self,
        task_id: int,
        status: str,
        t: float,
        actual_cost: Optional[float] = None,
        **extra: object,
    ) -> None:
        """The one terminal transition of a record.

        ``actual_cost`` is a live completion's measured cost; ``extra``
        rides on the trace event (a host's domain tag, the shedding
        policy's name).
        """
        record = self.records[task_id]
        if record.status in TERMINAL:
            raise LedgerError(
                f"task {task_id} already settled as {record.status!r}"
            )
        record.status = status
        self.settled[status] += 1
        if status == COMPLETED:
            record.finished_at = t
            self.last_finish = max(self.last_finish, t)
            if actual_cost is not None:
                record.actual_cost = actual_cost
                extra["actual_cost"] = actual_cost
            if record.met_deadline:
                self.deadline_hits += 1
            elif record.guaranteed:
                self.guaranteed_violations += 1
        else:
            # Only a completion keeps its guarantee: anything else voids it.
            self._revoke(record)
        if self.obs.enabled:
            self._emit(
                TERMINAL_TRANSITIONS[TERMINAL.index(status)], task_id, t,
                **_settled_fields(record, extra),
            )
        if self.observer is not None:
            self.observer.settle(record)

    def _revoke(self, record: TaskRecord) -> None:
        if record.guaranteed:
            record.guaranteed = False
            self.guaranteed -= 1

    def _emit(self, transition: str, task_id: int, t: float, **fields) -> None:
        """One ``task`` trace event + its transition counter."""
        obs = self.obs
        obs.emit("task", transition=transition, task_id=task_id, t=t, **fields)
        obs.metrics.counter(
            "runtime_task_transitions", transition=transition
        ).inc()

    # ----- views a finished run's readers use -------------------------------

    def scheduled_but_missed(self) -> List[TaskRecord]:
        """Tasks that finished late under an unrevoked guarantee.

        The paper's theorem guarantees this list is empty for RT-SADS (and
        for every scheduler built on the quantum-aware feasibility test);
        integration tests assert exactly that.
        """
        return [
            r
            for r in self.records.values()
            if r.guaranteed and r.status == COMPLETED and not r.met_deadline
        ]

    def total_reclaimed_time(self) -> float:
        """Worst-case processor time reclaimed by early completions."""
        return sum(r.reclaimed_time for r in self.records.values())

    def gantt(self) -> Dict[int, List[tuple]]:
        """Per-processor ``(task_id, start, finish)`` triples, time-ordered."""
        lanes: Dict[int, List[tuple]] = {}
        for record in self.records.values():
            if record.status != COMPLETED or record.processor is None:
                continue
            lanes.setdefault(record.processor, []).append(
                (record.task_id, record.started_at, record.finished_at)
            )
        for lane in lanes.values():
            lane.sort(key=lambda item: item[1])
        return lanes
