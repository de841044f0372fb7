"""Communication-cost models (``c_ij``) and affinity helpers.

Section 2 of the paper: ``c_ij`` is zero if ``T_i`` has affinity with ``P_j``
(its referenced data resides in ``P_j``'s local memory) and a constant ``C``
otherwise, justified by cut-through (wormhole) routing making communication
cost independent of distance.  We implement that model
(:class:`UniformCommunicationModel`) plus a distance-based store-and-forward
model (:class:`DistanceCommunicationModel`) used only as an ablation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Sequence, Tuple

from .task import Task


class CommunicationModel(ABC):
    """Maps a (task, processor) pair to a communication delay ``c_ij``."""

    @abstractmethod
    def cost(self, task: Task, processor: int) -> float:
        """Communication delay incurred if ``task`` executes on ``processor``."""

    def cost_row(self, task: Task, num_processors: int) -> tuple:
        """``(cost(task, 0), ..., cost(task, m-1))`` in one call.

        The search's per-phase communication cache
        (:meth:`repro.core.search.PhaseContext.comm_row`) fills rows through
        this hook so models can produce a whole row cheaper than ``m``
        virtual-dispatch calls.  Overrides must return exactly the values
        :meth:`cost` would.
        """
        cost = self.cost
        return tuple(cost(task, k) for k in range(num_processors))

    def cost_row_and_min(
        self, task: Task, num_processors: int
    ) -> Tuple[tuple, float]:
        """``(cost_row, min(cost_row))`` — what the search asks per task.

        Recomputed on every call here, because :meth:`cost` may read any
        task field; a model whose rows depend on less may reuse them.
        """
        row = self.cost_row(task, num_processors)
        return row, min(row)

    def execution_cost(self, task: Task, processor: int) -> float:
        """Total cost ``p_i + c_ij`` of running ``task`` on ``processor``."""
        return task.processing_time + self.cost(task, processor)


#: Distinct ``(affinity set, m)`` rows one model remembers before it starts
#: over.  A simulated run has about ten; the bound is for the live master,
#: whose one model sees a new alive-set projection after every worker loss.
COMM_ROW_CACHE_SIZE = 4096


class UniformCommunicationModel(CommunicationModel):
    """The paper's wormhole-routing model: 0 if affine, else constant ``C``.

    A row depends on the task's affinity set and ``m`` only, so the model
    keeps each distinct row (with its minimum) for as long as it lives —
    one run on the simulator, where a model is built per ``run_once``.
    """

    def __init__(self, remote_cost: float) -> None:
        if remote_cost < 0:
            raise ValueError(f"remote_cost must be non-negative, got {remote_cost}")
        self.remote_cost = remote_cost
        self._rows: Dict[Tuple[frozenset, int], Tuple[tuple, float]] = {}

    def cost(self, task: Task, processor: int) -> float:
        return 0.0 if task.has_affinity(processor) else self.remote_cost

    def cost_row(self, task: Task, num_processors: int) -> tuple:
        return self.cost_row_and_min(task, num_processors)[0]

    def cost_row_and_min(
        self, task: Task, num_processors: int
    ) -> Tuple[tuple, float]:
        affinity = task.affinity
        key = (affinity, num_processors)
        cached = self._rows.get(key)
        if cached is None:
            remote = self.remote_cost
            row = tuple(
                0.0 if k in affinity else remote
                for k in range(num_processors)
            )
            cached = (row, min(row))
            if len(self._rows) >= COMM_ROW_CACHE_SIZE:
                self._rows.clear()
            self._rows[key] = cached
        return cached

    def __repr__(self) -> str:
        return f"UniformCommunicationModel(C={self.remote_cost})"


class ZeroCommunicationModel(CommunicationModel):
    """Shared-memory idealization: communication is free everywhere.

    Useful as the R=100% limit and for isolating sequencing effects in tests.
    """

    def cost(self, task: Task, processor: int) -> float:
        return 0.0

    def cost_row(self, task: Task, num_processors: int) -> tuple:
        return (0.0,) * num_processors

    def __repr__(self) -> str:
        return "ZeroCommunicationModel()"


class DistanceCommunicationModel(CommunicationModel):
    """Store-and-forward ablation: cost grows with mesh distance.

    The paper argues wormhole routing makes ``c_ij`` distance-independent;
    this model lets benchmarks show what changes if that assumption is
    dropped.  Processors are laid out on a 1-D chain (the Paragon is a 2-D
    mesh, but for the ablation only *some* monotone distance matters); the
    distance of a non-affine processor is measured to the nearest affine one.
    """

    def __init__(self, per_hop_cost: float, num_processors: int) -> None:
        if per_hop_cost < 0:
            raise ValueError(f"per_hop_cost must be non-negative, got {per_hop_cost}")
        if num_processors <= 0:
            raise ValueError(f"num_processors must be positive, got {num_processors}")
        self.per_hop_cost = per_hop_cost
        self.num_processors = num_processors

    def cost(self, task: Task, processor: int) -> float:
        if task.has_affinity(processor) or not task.affinity:
            return 0.0
        hops = min(abs(processor - home) for home in task.affinity)
        return self.per_hop_cost * hops

    def __repr__(self) -> str:
        return (
            f"DistanceCommunicationModel(per_hop={self.per_hop_cost}, "
            f"m={self.num_processors})"
        )


def random_affinity(
    num_processors: int,
    affinity_probability: float,
    rng: random.Random,
) -> frozenset:
    """Draw a random affinity set with per-processor probability.

    The paper defines the *degree of affinity* as the probability that a task
    has affinity with a given processor.  At least one processor is always
    affine (a task's data must live somewhere), chosen uniformly when the
    Bernoulli draws all fail.
    """
    if not 0.0 <= affinity_probability <= 1.0:
        raise ValueError(
            f"affinity_probability must be in [0, 1], got {affinity_probability}"
        )
    if num_processors <= 0:
        raise ValueError(f"num_processors must be positive, got {num_processors}")
    members = [
        p for p in range(num_processors) if rng.random() < affinity_probability
    ]
    if not members:
        members = [rng.randrange(num_processors)]
    return frozenset(members)


class Projection:
    """One host's view of the machine: global worker ids in slot order.

    The host's scheduler sees slots, so a task's affinity (drawn from
    ``range(universe)``, the placement's ``m``) is renamed to the slots of
    its affine workers; a worker the view lacks drops out.  A sharded
    domain, and a live master after a loss or a late join, are such views.
    When the first ``universe`` slots are ``0..universe-1`` the renaming is
    the identity and :meth:`project` returns its input — keyed on slot
    order, never on the number of hosts.  Otherwise a memo keyed by task id
    renames each task object once and holds only the last call's tasks,
    so a host that projects its batch every phase keeps one batch of it.
    """

    def __init__(self, workers: Sequence[int], universe: int) -> None:
        #: Global worker id of each slot: ``workers[slot]``.
        self.workers = tuple(workers)
        self.universe = universe
        self.identity = self.workers[:universe] == tuple(range(universe))
        self._slots = {worker: slot for slot, worker in enumerate(self.workers)}
        #: task id -> (task as given, its projection).
        self._memo: Dict[int, Tuple[Task, Task]] = {}

    def rename(self, task: Task) -> Task:
        """``task`` in slot space; the same object if nothing moved."""
        slots = self._slots
        local = frozenset(slots[w] for w in task.affinity if w in slots)
        if local == task.affinity:
            return task
        return replace(task, affinity=local)

    def project(self, tasks: Sequence[Task]) -> Sequence[Task]:
        """``tasks`` in slot space, element by element; unchanged ones as given."""
        if self.identity:
            return tasks
        memo = self._memo
        kept: Dict[int, Tuple[Task, Task]] = {}
        projected = []
        for task in tasks:
            pair = memo.get(task.task_id)
            if pair is None or pair[0] is not task:
                pair = (task, self.rename(task))
            kept[task.task_id] = pair
            projected.append(pair[1])
        self._memo = kept
        return projected
