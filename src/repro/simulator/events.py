"""Event types and the time-ordered event queue of the simulator.

The runtime is a discrete-event simulation: every state change is an event
with a timestamp, dispatched in (time, insertion) order.  Ties in time are
broken by insertion sequence, which the runtime relies on (e.g. all bursty
arrivals at ``t = 0`` are processed before the host's wake-up event that
opens the first scheduling phase).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..core.task import Task


@dataclass(frozen=True)
class TaskArrived:
    """An aperiodic task has reached the host (scheduling) processor."""

    task: Task


@dataclass(frozen=True)
class HostWake:
    """Deferred request for one domain's host to open a scheduling phase.

    Scheduled instead of opening a phase inline so that all same-time
    arrivals are admitted into the batch first.
    """

    domain: int = 0


@dataclass(frozen=True)
class ScheduleDelivered:
    """A host's phase ``j`` ended; its schedule reaches the ready queues."""

    domain: int = 0


@dataclass(frozen=True)
class TaskFinished:
    """A working processor completed its current task."""

    processor: int
    task_id: int


@dataclass(frozen=True)
class ProcessorFailed:
    """A working processor crashes (fail-stop), losing its in-flight task.

    Queued-but-not-started work survives (the schedule is host-side state)
    and is returned to the batch for rescheduling on the remaining
    processors.
    """

    processor: int


class EventQueue:
    """Min-heap of timestamped events with stable same-time ordering."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def push(self, time: float, event: Any) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        heapq.heappush(self._heap, (time, next(self._counter), event))

    def pop(self) -> Tuple[float, Any]:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        time, _, event = heapq.heappop(self._heap)
        return time, event

    def peek_time(self) -> Optional[float]:
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
