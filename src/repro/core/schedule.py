"""Schedules: the output of a scheduling phase.

A schedule (paper Section 3) is an ordered set of task-to-processor
assignments ``(T_i -> P_j)``.  A *complete* schedule covers the whole batch;
otherwise it is *partial*.  Schedules produced by a phase are delivered to the
ready queues of the working processors and executed in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from .affinity import CommunicationModel
from .task import Task


@dataclass(frozen=True)
class ScheduleEntry:
    """One feasible task-to-processor assignment inside a schedule.

    ``scheduled_end`` is ``se_lk`` from the paper's feasibility test: the
    projected completion offset of the task, measured from the end of the
    scheduling phase that produced it.
    """

    task: Task
    processor: int
    communication_cost: float
    scheduled_end: float

    @property
    def total_cost(self) -> float:
        """``p_l + c_lk`` — the processor time the entry consumes."""
        return self.task.processing_time + self.communication_cost


class Schedule:
    """An ordered collection of :class:`ScheduleEntry`, grouped by processor.

    Entries preserve the order in which the search added them to the partial
    schedule; per-processor sequences preserve execution order.
    """

    def __init__(self, entries: Iterable[ScheduleEntry] = ()) -> None:
        self._entries: List[ScheduleEntry] = []
        self._by_processor: Dict[int, List[ScheduleEntry]] = {}
        self._task_ids: set[int] = set()
        for entry in entries:
            self.append(entry)

    def append(self, entry: ScheduleEntry) -> None:
        """Add an assignment; rejects scheduling the same task twice."""
        if entry.task.task_id in self._task_ids:
            raise ValueError(
                f"task {entry.task.task_id} already present in schedule"
            )
        self._entries.append(entry)
        self._by_processor.setdefault(entry.processor, []).append(entry)
        self._task_ids.add(entry.task.task_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def entries(self) -> List[ScheduleEntry]:
        return list(self._entries)

    def task_ids(self) -> set[int]:
        """Ids of all tasks covered by this schedule."""
        return set(self._task_ids)

    def processors(self) -> set[int]:
        """Processors that received at least one task."""
        return set(self._by_processor)

    def makespan(self) -> float:
        """Largest scheduled-end offset — the schedule's ``CE`` value."""
        if not self._entries:
            return 0.0
        return max(e.scheduled_end for e in self._entries)

    def validate(
        self,
        comm: CommunicationModel,
        initial_loads: Dict[int, float],
        delivery_bound: float,
    ) -> None:
        """Check internal consistency and deadline safety of the schedule.

        Verifies, for every processor sequence, that scheduled ends are
        cumulative sums of entry costs on top of the processor's projected
        initial load, and that ``delivery_bound + se <= d`` for every entry
        (``delivery_bound`` is ``t_s + Q_s``, an upper bound on the phase's
        actual end time ``t_e``).  Raises ``ValueError`` on violation.
        """
        for proc, seq in self._by_processor.items():
            offset = initial_loads.get(proc, 0.0)
            for entry in seq:
                expected_cost = comm.execution_cost(entry.task, proc)
                if abs(entry.total_cost - expected_cost) > 1e-9:
                    raise ValueError(
                        f"entry for task {entry.task.task_id} on P{proc} has "
                        f"cost {entry.total_cost}, expected {expected_cost}"
                    )
                offset += entry.total_cost
                if abs(entry.scheduled_end - offset) > 1e-9:
                    raise ValueError(
                        f"entry for task {entry.task.task_id} on P{proc} has "
                        f"scheduled_end {entry.scheduled_end}, expected {offset}"
                    )
                if delivery_bound + entry.scheduled_end > entry.task.deadline + 1e-9:
                    raise ValueError(
                        f"task {entry.task.task_id} violates deadline: "
                        f"{delivery_bound} + {entry.scheduled_end} > "
                        f"{entry.task.deadline}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule(tasks={len(self._entries)}, "
            f"processors={sorted(self._by_processor)})"
        )
