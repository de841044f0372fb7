"""Batch lifecycle across scheduling phases (paper Section 4).

``Batch(0)`` holds the initially arrived tasks.  At the end of phase ``j``,
``Batch(j+1)`` is formed by removing the tasks scheduled in phase ``j`` and
the tasks whose deadlines were missed while waiting, and by adding the tasks
that arrived during phase ``j``.  Scheduled tasks never re-enter a batch.

The paper states that formation as a *delta*, and :class:`Batch` pays for it
as one: besides its members in admission order it keeps them sorted in EDF
order and indexed by latest start time, each updated by a bisect per task
that joins or leaves.  A phase then reads its task order, its expired tasks
and its ``Min_Slack`` off those orders instead of rebuilding them from the
whole batch.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .task import Task, edf_key

_INF = float("inf")

#: One latest-start window ``(d - p, d, p)``: every member sharing a deadline
#: and a processing time shares its expiry instant and its slack.
Window = Tuple[float, float, float]

#: The guard band around a latest-start key, as a fraction of the magnitudes
#: subtracted (see :meth:`Batch._key_limit`).  A key ``fl(d - p)`` and the
#: exact expressions ``fl(now + p) > d`` / ``fl(fl(d - now) - p)`` each round
#: once or twice, so two windows' keys can order differently from their
#: exact values by a few ulps of the largest operand (at most 5 epsilons'
#: worth, both windows counted); anything wider is safe.
GUARD_BAND = 16 * sys.float_info.epsilon


def window_of(task: Task) -> Window:
    """The latest-start window ``task`` belongs to."""
    return (
        task.deadline - task.processing_time,
        task.deadline,
        task.processing_time,
    )


class EdfOrder(List[Task]):
    """A list of tasks known to be sorted by :func:`~repro.core.task.edf_key`.

    The type is the proof of order: :meth:`Batch.edf_order` returns one, and
    :func:`in_edf_order` hands it back unsorted.  Treat it as read-only.  It
    also remembers the batch it was read from, so ``Min_Slack`` can be asked
    of the batch's index for as long as the batch has not changed since.
    """

    __slots__ = ("_batch", "_taken_at")

    def __init__(
        self, tasks: Iterable[Task] = (), batch: Optional["Batch"] = None
    ) -> None:
        super().__init__(tasks)
        self._batch = batch
        self._taken_at = batch._changes if batch is not None else 0

    def carried_to(self, tasks: Sequence[Task]) -> "EdfOrder":
        """This order over element-wise stand-ins for its tasks.

        ``tasks[i]`` must be ``self[i]`` with the same id, deadline and
        processing time — what :meth:`PhaseHooks.transform_batch
        <repro.runtime.driver.PhaseHooks.transform_batch>` returns, which
        rewrites affinities only.
        """
        if tasks is self:
            return self
        if len(tasks) != len(self):
            raise ValueError(
                f"{len(tasks)} tasks cannot stand in for {len(self)}"
            )
        carried = EdfOrder(tasks)
        carried._batch, carried._taken_at = self._batch, self._taken_at
        return carried


def in_edf_order(tasks: Sequence[Task]) -> List[Task]:
    """``tasks`` in EDF order: as given if already so by type, else sorted."""
    if isinstance(tasks, EdfOrder):
        return tasks
    return sorted(tasks, key=edf_key)


def batch_behind(tasks: Sequence[Task]) -> Optional["Batch"]:
    """The batch ``tasks`` was read from, while ``tasks`` is still its order.

    ``None`` for anything but a batch's :class:`EdfOrder`, and for one whose
    batch has gained or lost a member since: the caller then answers from
    the sequence itself.
    """
    if isinstance(tasks, EdfOrder):
        batch = tasks._batch
        if batch is not None and batch._changes == tasks._taken_at:
            return batch
    return None


class Batch:
    """The scheduler's working set of unscheduled, still-viable tasks."""

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        #: Members in admission order.
        self._tasks: Dict[int, Task] = {}
        #: Members sorted by ``edf_key``.
        self._edf: List[Task] = []
        #: The distinct latest-start windows of the members, sorted, and for
        #: each the members sharing it: task id -> admission sequence number.
        self._windows: List[Window] = []
        self._members: Dict[Window, Dict[int, int]] = {}
        #: Bumped by every call that changes membership (see batch_behind).
        self._changes = 0
        self.phase_index = 0
        self.total_admitted = 0
        self.total_scheduled = 0
        self.total_expired = 0
        self.total_withdrawn = 0
        self.add_arrivals(tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __bool__(self) -> bool:
        return bool(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def tasks(self) -> List[Task]:
        """Current members in admission order."""
        return list(self._tasks.values())

    def edf_order(self) -> EdfOrder:
        """Current members sorted by deadline (the phase's task order)."""
        return EdfOrder(self._edf, self)

    # ----- the delta --------------------------------------------------------

    def add_arrivals(self, tasks: Iterable[Task]) -> int:
        """Admit newly arrived tasks; returns how many were admitted.

        A duplicate id (in the batch or within the call) raises before
        anything is admitted.
        """
        arrivals = list(tasks)
        ids = set()
        for task in arrivals:
            if task.task_id in self._tasks or task.task_id in ids:
                raise ValueError(f"task {task.task_id} already in batch")
            ids.add(task.task_id)
        if not arrivals:
            return 0
        # The admission sequence number orders drop_expired's result; the
        # running admission count is one that never repeats.
        for sequence, task in enumerate(arrivals, self.total_admitted):
            self._tasks[task.task_id] = task
            insort(self._edf, task, key=edf_key)
            window = window_of(task)
            members = self._members.get(window)
            if members is None:
                members = self._members[window] = {}
                insort(self._windows, window)
            members[task.task_id] = sequence
        self.total_admitted += len(arrivals)
        self._changes += 1
        return len(arrivals)

    def _remove(self, task_ids: Iterable[int]) -> List[Task]:
        """Take the named members (all present, no repeats) out of every order."""
        removed = [self._tasks.pop(task_id) for task_id in task_ids]
        for task in removed:
            del self._edf[bisect_left(self._edf, edf_key(task), key=edf_key)]
            window = window_of(task)
            members = self._members[window]
            del members[task.task_id]
            if not members:
                del self._members[window]
                del self._windows[bisect_left(self._windows, window)]
        if removed:
            self._changes += 1
        return removed

    def remove_scheduled(self, task_ids: Iterable[int]) -> List[Task]:
        """Remove tasks scheduled in the finishing phase; never re-admitted.

        An id that is not in the batch (or is named twice) raises before
        anything is removed.
        """
        wanted = list(task_ids)
        seen = set()
        for task_id in wanted:
            if task_id not in self._tasks or task_id in seen:
                raise KeyError(f"task {task_id} not in batch")
            seen.add(task_id)
        removed = self._remove(wanted)
        self.total_scheduled += len(removed)
        return removed

    def withdraw(self, task_ids: Iterable[int]) -> List[Task]:
        """Remove tasks shed by an admission policy before any phase took them.

        Unlike :meth:`remove_scheduled`, missing ids are skipped (the task
        may have expired or been scheduled since the shed decision) and the
        removals count as ``total_withdrawn``, not ``total_scheduled``.
        """
        present = dict.fromkeys(
            task_id for task_id in task_ids if task_id in self._tasks
        )
        withdrawn = self._remove(present)
        self.total_withdrawn += len(withdrawn)
        return withdrawn

    def drop_expired(self, now: float) -> List[Task]:
        """Evict tasks satisfying ``p_i + t_c > d_i`` (hopeless at ``now``).

        Returned in admission order, the order the ledger's ``expired``
        events are emitted in.  Only the windows whose latest start is
        before ``now`` or within the guard band of it are looked at, and
        each of those is decided by the predicate itself
        (:meth:`Task.is_expired`'s expression), never by its key.
        """
        if not self._windows:
            return []
        limit = self._key_limit(now, now)
        admitted: List[Tuple[int, int]] = []
        for window in self._windows:
            start, deadline, processing = window
            if start > limit:
                break
            if now + processing > deadline:
                admitted.extend(self._members[window].items())
        if not admitted:
            return []
        admitted.sort(key=itemgetter(1))
        expired = self._remove([task_id for task_id, _ in admitted])
        self.total_expired += len(expired)
        return expired

    def min_slack(self, now: float) -> float:
        """``Min_Slack``: the smallest slack among the members, floored at 0.

        The same float :func:`repro.core.quantum.min_slack` computes over
        :meth:`tasks`: the minimum of :meth:`Task.slack`'s expression over
        the windows whose key is within the guard band of the smallest.
        """
        if not self._windows:
            return 0.0
        limit = self._key_limit(self._windows[0][0], now)
        smallest = _INF
        for start, deadline, processing in self._windows:
            if start > limit:
                break
            slack = deadline - now - processing
            if slack < smallest:
                smallest = slack
        return max(0.0, smallest)

    def _key_limit(self, start: float, now: float) -> float:
        """The largest key that may belong before ``start``: it plus the band.

        The guard band is the key distance beyond which rounding cannot
        reorder a key against an exact expression evaluated at ``now``:
        relative to the largest magnitude such an expression can hold —
        ``now``, the latest deadline, and, for a task admitted with
        ``p > d``, a processing time of at most that deadline plus the
        (negative) smallest key.  Call only on a non-empty batch.
        """
        scale = abs(now) + abs(self._edf[-1].deadline) + abs(self._windows[0][0])
        return start + GUARD_BAND * scale

    def advance_phase(self) -> int:
        """Mark the transition ``Batch(j) -> Batch(j+1)``; returns new index."""
        self.phase_index += 1
        return self.phase_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batch(j={self.phase_index}, size={len(self._tasks)}, "
            f"scheduled={self.total_scheduled}, expired={self.total_expired})"
        )
