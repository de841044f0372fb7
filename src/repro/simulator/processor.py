"""Working processors: private-memory nodes executing their ready queues.

Each working processor owns a FIFO ready queue of delivered assignments and
executes them non-preemptively in delivery order, exactly as the schedules
``S_j`` prescribe (paper Section 4: tasks in ``S_j`` are executed by the
working processors while scheduling of ``S_{j+1}`` is in progress).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..core.schedule import ScheduleEntry
from ..core.task import Task


@dataclass(frozen=True)
class QueuedWork:
    """One delivered assignment awaiting execution on a worker.

    ``total_cost`` is the *actual* processor time the task will consume
    (resolved by the runtime's execution model at delivery); it never
    exceeds ``planned_cost``, the worst case the scheduler budgeted.
    """

    task: Task
    total_cost: float
    delivered_at: float
    planned_cost: float = 0.0


@dataclass
class RunningWork:
    """The assignment currently executing (non-preemptable)."""

    task: Task
    started_at: float
    finishes_at: float


class WorkerProcessor:
    """One node of the distributed-memory machine.

    The worker has no scheduling intelligence: it drains its FIFO queue.
    ``load(now)`` is the paper's ``Load_k`` — the remaining execution cost of
    everything queued plus the unfinished part of the running task.
    """

    def __init__(self, processor_id: int) -> None:
        if processor_id < 0:
            raise ValueError("processor_id must be non-negative")
        self.processor_id = processor_id
        self.queue: Deque[QueuedWork] = deque()
        # The queue's summed cost, as ``load`` sums it; None once a queue
        # change (deliver, start_next, fail) made it stale.  Re-summed, not
        # adjusted, so it is the very float the sum would give.
        self._queued_cost: Optional[float] = None
        self.running: Optional[RunningWork] = None
        self.completed_count = 0
        self.busy_time = 0.0
        self.failed = False

    @property
    def is_busy(self) -> bool:
        return self.running is not None

    def load(self, now: float) -> float:
        """Remaining work ``Load_k`` at virtual time ``now``.

        A failed processor reports infinite load, so every feasibility test
        against it fails and the schedulers route around it with no special
        casing.
        """
        if self.failed:
            return float("inf")
        remaining = self._queued_cost
        if remaining is None:
            remaining = sum(work.total_cost for work in self.queue)
            self._queued_cost = remaining
        if self.running is not None:
            remaining += max(0.0, self.running.finishes_at - now)
        return remaining

    def fail(self, now: float):
        """Fail-stop crash: lose the running task, surrender the queue.

        Returns ``(lost, survivors)``: the in-flight :class:`RunningWork`
        (or None) and the queued entries that never started — the runtime
        returns those to the batch for rescheduling.  Idempotent-hostile:
        failing twice is a caller bug and raises.
        """
        if self.failed:
            raise RuntimeError(f"P{self.processor_id} already failed")
        self.failed = True
        lost = self.running
        survivors = list(self.queue)
        self.running = None
        self.queue.clear()
        self._queued_cost = None
        if lost is not None:
            self.busy_time += max(0.0, now - lost.started_at)
        return lost, survivors

    def deliver(
        self,
        entry: ScheduleEntry,
        now: float,
        actual_cost: Optional[float] = None,
    ) -> None:
        """Append one schedule entry to the ready queue.

        ``actual_cost`` (defaulting to the planned worst case) is what the
        task will really consume; when it undercuts the plan the worker
        reclaims the difference by starting its next task early.
        """
        if self.failed:
            raise RuntimeError(
                f"cannot deliver to failed processor P{self.processor_id}"
            )
        cost = entry.total_cost if actual_cost is None else actual_cost
        if cost > entry.total_cost + 1e-9:
            raise ValueError(
                f"actual cost {cost} exceeds planned worst case "
                f"{entry.total_cost} for task {entry.task.task_id}"
            )
        self.queue.append(
            QueuedWork(
                task=entry.task,
                total_cost=cost,
                delivered_at=now,
                planned_cost=entry.total_cost,
            )
        )
        self._queued_cost = None

    def start_next(self, now: float) -> Optional[RunningWork]:
        """Begin the next queued task if idle; returns the running record."""
        if self.failed or self.running is not None:
            return None
        if not self.queue:
            return None
        work = self.queue.popleft()
        self._queued_cost = None
        self.running = RunningWork(
            task=work.task,
            started_at=now,
            finishes_at=now + work.total_cost,
        )
        return self.running

    def complete_current(self, now: float) -> RunningWork:
        """Finish the running task; caller must pass its finish time."""
        if self.running is None:
            raise RuntimeError(
                f"P{self.processor_id} has no running task to complete"
            )
        if abs(now - self.running.finishes_at) > 1e-9:
            raise RuntimeError(
                f"P{self.processor_id} completion at {now} does not match "
                f"expected finish {self.running.finishes_at}"
            )
        finished = self.running
        self.running = None
        self.completed_count += 1
        self.busy_time += finished.finishes_at - finished.started_at
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.is_busy else "idle"
        return (
            f"WorkerProcessor(P{self.processor_id}, {state}, "
            f"queued={len(self.queue)})"
        )
