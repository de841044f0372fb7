"""Admission backpressure and overload-shedding policies for service mode.

The batch experiments never refuse work: every transaction is known up
front and the scheduler's feasibility search decides its fate.  A
long-lived service under open-loop load has no such luxury — arrivals do
not slow down when the fleet saturates, so *something* must shed load, and
the paper's guarantee discipline says it should happen at admission, not
by silent deadline misses deep in the backlog.

Three policies are provided, all deciding from the same
:class:`AdmissionState` (admitted-but-undispatched work, work in flight on
workers, alive fleet size, and a backlog capacity).  The service master
keeps one state for its whole run and moves a task between its views at
the record's four status transitions — accepted, dispatched, requeued by a
lost worker, settled — so what a decision reads is already there: a SUBMIT
costs the policy's own work, never a walk of every record in flight.

``reject-newest``
    Bound the backlog in work units; reject arrivals that would overflow
    it.  The classic tail-drop queue: simple, fair to the queue, blind to
    deadlines.

``least-slack``
    Same backlog bound, but on overflow the *least-slack* queued work is
    shed to make room — the task most likely to miss anyway pays, whether
    that is the newcomer or something already accepted.

``schedulability``
    No fixed bound; admit exactly when an EDF demand-bound test still
    passes with the newcomer included.  For every queued absolute deadline
    ``d`` at or after the newcomer's, the work due by ``d`` must fit into
    ``workers * (d - now)`` processor-units — the necessary condition for
    EDF feasibility on identical multiprocessors used as an admission gate
    (after Bonifaci & Marchetti-Spaccamela, arXiv:1004.2033, and Singh's
    soft-real-time EDF test, arXiv:1205.0124).

All quantities are virtual cost units; costs are the master's worst-case
processing estimates (communication is placement-dependent and not known
at admission).  Policies are pure and deterministic — same state, same
decision — so service runs stay reproducible cell-by-cell in sweeps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Tuple, Type

from ..core.feasibility import EPSILON
from ..core.task import Task


@dataclass(frozen=True)
class QueuedTask:
    """Admission's view of one accepted, unfinished task."""

    task_id: int
    cost: float
    deadline: float

    def slack(self, now: float) -> float:
        """Time to spare if the task started right now."""
        return self.deadline - now - self.cost


class _Queue:
    """Views keyed by task id, and the sum of their costs."""

    __slots__ = ("views", "units")

    def __init__(self, views: Iterable[QueuedTask]) -> None:
        self.views: Dict[int, QueuedTask] = {q.task_id: q for q in views}
        self.units = sum((q.cost for q in self.views.values()), 0.0)

    def add(self, queued: QueuedTask) -> None:
        self.views[queued.task_id] = queued
        self.units += queued.cost

    def take(self, task_id: int) -> QueuedTask:
        queued = self.views.pop(task_id)
        # Exactly zero once empty: no rounding outlives a drain.
        self.units = self.units - queued.cost if self.views else 0.0
        return queued


class AdmissionState:
    """What is queued, as a policy sees it for one SUBMIT decision.

    ``pending`` is admitted-but-undispatched work (sheddable: no guarantee
    was issued yet); ``outstanding`` is dispatched, unfinished work (not
    sheddable: it carries a delivered guarantee).  ``capacity_units`` is
    the backlog bound the capped policies enforce.

    A state built from views sums each view once; the service master keeps
    one and posts its records' transitions to :meth:`admit`,
    :meth:`place`, :meth:`requeue` and :meth:`settle`, which keep both
    views and both unit totals.  Totals are running sums, exact for the
    integer-valued costs of every shipped template universe.
    """

    def __init__(
        self,
        now: float,
        workers: int,
        capacity_units: float,
        pending: Iterable[QueuedTask] = (),
        outstanding: Iterable[QueuedTask] = (),
    ) -> None:
        self.now = now
        self.workers = workers
        self.capacity_units = capacity_units
        self._pending = _Queue(pending)
        self._outstanding = _Queue(outstanding)

    @property
    def pending(self) -> Collection[QueuedTask]:
        """Admitted-but-undispatched work."""
        return self._pending.views.values()

    @property
    def outstanding(self) -> Collection[QueuedTask]:
        """Dispatched, unfinished work."""
        return self._outstanding.views.values()

    def backlog_units(self) -> float:
        """Admitted-but-undispatched work in cost units."""
        return self._pending.units

    def outstanding_units(self) -> float:
        """Dispatched, unfinished work in cost units."""
        return self._outstanding.units

    def at(self, now: float, workers: int) -> "AdmissionState":
        """Stamp the decision's clock and alive fleet size; returns self."""
        self.now = now
        self.workers = workers
        return self

    # ----- the four transitions a kept state follows -------------------------

    def admit(self, task: Task) -> None:
        """An accepted task waits, costed at its processing time."""
        self._pending.add(
            QueuedTask(task.task_id, task.processing_time, task.deadline)
        )

    def place(self, task_id: int, cost: float) -> None:
        """A waiting task was dispatched under a guarantee budgeted at
        ``cost`` (the schedule entry's total)."""
        queued = self._pending.take(task_id)
        self._outstanding.add(QueuedTask(task_id, cost, queued.deadline))

    def requeue(self, task: Task) -> None:
        """A lost worker's task waits again, at its processing time."""
        self._outstanding.take(task.task_id)
        self.admit(task)

    def settle(self, task_id: int) -> None:
        """The task reached a terminal status: it is queued nowhere."""
        if task_id in self._pending.views:
            self._pending.take(task_id)
        else:
            self._outstanding.take(task_id)


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission decision.

    ``shed`` names already-admitted pending tasks the policy withdraws to
    make room (only ``least-slack`` uses it); the master owes each of them
    a terminal ``RESULT``.
    """

    accept: bool
    reason: str = "admitted"
    shed: Tuple[int, ...] = ()


class AdmissionPolicy(ABC):
    """Decides one SUBMIT at a time from an :class:`AdmissionState`."""

    #: Registry key; echoed on REJECT frames and in run reports.
    name = "abstract"

    @abstractmethod
    def decide(self, task: Task, cost: float, state: AdmissionState) -> Decision:
        """Admit, reject, or shed-and-admit one incoming task."""


class RejectNewestPolicy(AdmissionPolicy):
    """Tail drop: reject arrivals that would overflow the backlog bound."""

    name = "reject-newest"

    def decide(self, task: Task, cost: float, state: AdmissionState) -> Decision:
        if state.backlog_units() + cost > state.capacity_units + EPSILON:
            return Decision(accept=False, reason="backlog-full")
        return Decision(accept=True)


class LeastSlackPolicy(AdmissionPolicy):
    """On overflow, shed whichever queued work has the least slack.

    The newcomer competes with the pending queue on slack (``deadline -
    now - cost``): pending tasks with less slack than the newcomer are
    withdrawn until it fits; if the newcomer itself has the least slack —
    or shedding everything looser still leaves no room — the newcomer is
    rejected and nothing already accepted is disturbed.
    """

    name = "least-slack"

    def decide(self, task: Task, cost: float, state: AdmissionState) -> Decision:
        backlog = state.backlog_units()
        if backlog + cost <= state.capacity_units + EPSILON:
            return Decision(accept=True)
        new_slack = task.deadline - state.now - cost
        # Loosest-first ordering of the pending work the newcomer may evict.
        looser = sorted(
            (q for q in state.pending if q.slack(state.now) < new_slack - EPSILON),
            key=lambda q: (q.slack(state.now), q.task_id),
        )
        shed: List[int] = []
        for queued in looser:
            if backlog + cost <= state.capacity_units + EPSILON:
                break
            backlog -= queued.cost
            shed.append(queued.task_id)
        if backlog + cost > state.capacity_units + EPSILON:
            return Decision(accept=False, reason="least-slack")
        return Decision(accept=True, shed=tuple(shed))


class SchedulabilityPolicy(AdmissionPolicy):
    """EDF demand-bound admission gate (no fixed backlog cap).

    Admit the newcomer exactly when, for every queued absolute deadline
    ``d >= d_new``, the total work due by ``d`` (pending + outstanding +
    the newcomer) fits into ``workers * (d - now)`` processor-units.
    Violating this necessary condition means *some* deadline must be
    missed under any scheduler, so the newcomer is refused before a
    doomed promise is made.
    """

    name = "schedulability"

    def decide(self, task: Task, cost: float, state: AdmissionState) -> Decision:
        if state.workers <= 0:
            return Decision(accept=False, reason="no-capacity")
        queued = list(state.pending) + list(state.outstanding)
        new_deadline = task.deadline
        # Demand only grows at deadlines >= the newcomer's, so earlier
        # deadlines keep whatever feasibility they already had.
        checkpoints = sorted(
            {q.deadline for q in queued if q.deadline >= new_deadline - EPSILON}
            | {new_deadline}
        )
        for deadline in checkpoints:
            demand = cost + sum(
                q.cost for q in queued if q.deadline <= deadline + EPSILON
            )
            supply = state.workers * (deadline - state.now)
            if demand > supply + EPSILON:
                return Decision(accept=False, reason="demand-exceeds-capacity")
        return Decision(accept=True)


_POLICIES: Dict[str, Type[AdmissionPolicy]] = {
    RejectNewestPolicy.name: RejectNewestPolicy,
    LeastSlackPolicy.name: LeastSlackPolicy,
    SchedulabilityPolicy.name: SchedulabilityPolicy,
}

#: Registry keys accepted by :func:`build_policy` and
#: ``ExperimentConfig.admission_policy``.
ADMISSION_POLICY_NAMES = tuple(_POLICIES)


def build_policy(name: str) -> AdmissionPolicy:
    """Instantiate the admission policy registered under ``name``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; "
            f"expected one of {ADMISSION_POLICY_NAMES}"
        ) from None
    return cls()
