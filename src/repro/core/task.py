"""Task model for real-time distributed scheduling.

This module implements the task model of Section 2 of the paper: a set ``T``
of ``n`` aperiodic, non-preemptable, independent real-time tasks ``T_i``, each
characterized by a processing time ``p_i``, an arrival time ``a_i``, an
absolute deadline ``d_i``, and an affinity set — the processors ``P_j`` whose
local memories hold the data objects ``T_i`` references.  The communication
cost ``c_ij`` is derived from the affinity set by a communication model (see
:mod:`repro.core.affinity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Sequence


class TaskValidationError(ValueError):
    """Raised when a task or task set violates the model's invariants."""


@dataclass(frozen=True)
class Task:
    """One aperiodic, non-preemptable real-time task.

    Parameters
    ----------
    task_id:
        Unique identifier within a workload.
    processing_time:
        ``p_i`` — execution time on any processor, excluding communication.
    arrival_time:
        ``a_i`` — absolute time at which the task becomes known to the
        scheduler.  Bursty workloads use ``a_i = 0`` for all tasks.
    deadline:
        ``d_i`` — absolute deadline by which execution must complete.
    affinity:
        Identifiers of the processors whose local memory holds this task's
        referenced data objects.  Executing on one of these processors incurs
        zero communication cost; executing elsewhere incurs the model's
        constant cost ``C``.
    tag:
        Optional free-form label (e.g. the transaction kind that produced
        this task).  Not interpreted by the scheduler.
    """

    task_id: int
    processing_time: float
    arrival_time: float
    deadline: float
    affinity: frozenset = field(default_factory=frozenset)
    tag: str = ""

    def __post_init__(self) -> None:
        # Written as ``not (x > y)`` so that a NaN fails each check.
        if not self.processing_time > 0:
            raise TaskValidationError(
                f"task {self.task_id}: processing_time must be positive, "
                f"got {self.processing_time}"
            )
        if not self.arrival_time >= 0:
            raise TaskValidationError(
                f"task {self.task_id}: arrival_time must be non-negative, "
                f"got {self.arrival_time}"
            )
        if not self.deadline > self.arrival_time:
            raise TaskValidationError(
                f"task {self.task_id}: deadline ({self.deadline}) must be "
                f"after arrival ({self.arrival_time})"
            )
        if not isinstance(self.affinity, frozenset):
            # Accept any iterable for convenience but store a frozenset so
            # Task stays hashable and immutable.
            object.__setattr__(self, "affinity", frozenset(self.affinity))

    def has_affinity(self, processor: int) -> bool:
        """Return whether this task's data resides on ``processor``."""
        return processor in self.affinity

    def slack(self, now: float) -> float:
        """Maximum delay before execution must start to meet the deadline.

        The paper (Section 4.2, footnote) defines slack as the maximum time
        during which the execution of a task can be delayed without missing
        its deadline, i.e. ``d_i - now - p_i`` (communication excluded, which
        makes this the *optimistic* slack attained on an affine processor).
        """
        return self.deadline - now - self.processing_time

    def laxity(self) -> float:
        """Relative slack at arrival: ``(d_i - a_i) / p_i``."""
        return (self.deadline - self.arrival_time) / self.processing_time

    def is_expired(self, now: float) -> bool:
        """Whether the deadline can no longer be met even with zero wait.

        Mirrors the batch-cleanup predicate of Section 4.1:
        ``p_i + t_c > d_i``.
        """
        return now + self.processing_time > self.deadline


#: The EDF sort key ``(deadline, task_id)``: the order a phase considers its
#: batch in, ties broken by id so the order is total and reproducible.
edf_key = attrgetter("deadline", "task_id")


class TaskSet:
    """An ordered collection of tasks with workload-level validation.

    A :class:`TaskSet` is what workload generators produce and what the
    on-line runtime feeds, in arrival order, to the scheduler's batches.
    """

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks: list[Task] = []
        self._ids: set[int] = set()
        for task in tasks:
            self.add(task)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def __contains__(self, task: Task) -> bool:
        """Whether the set holds a task with ``task``'s id (ids are unique)."""
        return task.task_id in self._ids

    def add(self, task: Task) -> None:
        """Append a task, enforcing task-id uniqueness."""
        if task.task_id in self._ids:
            raise TaskValidationError(
                f"duplicate task_id {task.task_id} in task set"
            )
        self._ids.add(task.task_id)
        self._tasks.append(task)

    def by_deadline(self) -> list[Task]:
        """Tasks sorted by absolute deadline (EDF order)."""
        return sorted(self._tasks, key=edf_key)

    def ids(self) -> list[int]:
        """Task ids in insertion order."""
        return [task.task_id for task in self._tasks]

    def min_laxity(self) -> float:
        """Smallest relative laxity across the set."""
        if not self._tasks:
            raise TaskValidationError("min_laxity of an empty task set")
        return min(task.laxity() for task in self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskSet(n={len(self._tasks)})"


def make_task(
    task_id: int,
    processing_time: float,
    deadline: float,
    arrival_time: float = 0.0,
    affinity: Sequence[int] | frozenset = frozenset(),
    tag: str = "",
) -> Task:
    """Convenience constructor used heavily by tests and examples."""
    return Task(
        task_id=task_id,
        processing_time=processing_time,
        arrival_time=arrival_time,
        deadline=deadline,
        affinity=frozenset(affinity),
        tag=tag,
    )
