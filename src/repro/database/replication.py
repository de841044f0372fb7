"""Replica placement: mapping sub-databases to processors' local memories.

The replication rate ``R`` (paper Section 5.1) controls how many processors
hold a copy of each sub-database: ``R = 100%`` puts the whole global
database in every local memory; ``R = 10%`` leaves each processor with at
most one sub-database copy.  Replication rate and task-to-processor affinity
are two views of the same quantity — a task touching sub-database ``s`` has
affinity with exactly the processors in ``placement[s]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List


@dataclass(frozen=True)
class ReplicaPlacement:
    """Immutable assignment of sub-database replicas to processors."""

    num_subdatabases: int
    num_processors: int
    replication_rate: float
    replicas: Dict[int, FrozenSet[int]]

    def processors_holding(self, subdb: int) -> FrozenSet[int]:
        """Processors with ``subdb`` in local memory — a task's affinity set."""
        try:
            return self.replicas[subdb]
        except KeyError:
            raise ValueError(f"unknown sub-database {subdb}") from None

    def primary_of(self, subdb: int) -> int:
        """The primary copy's processor (``subdb mod m`` by construction).

        Write transactions execute at the primary so same-partition writes
        serialize through one FIFO queue (primary-copy replication).
        """
        holders = self.processors_holding(subdb)
        primary = subdb % self.num_processors
        if primary not in holders:
            # Defensive: custom placements may move the primary.
            primary = min(holders)
        return primary

    def affinity(self, subdb: int, write: bool) -> FrozenSet[int]:
        """Processors that can serve a transaction on ``subdb`` locally.

        A read runs on any replica holder; a write is pinned to the
        primary copy (primary-copy replication), so same-partition writes
        serialize through one FIFO queue and no lock waits can delay a
        scheduled task.
        """
        if write:
            return frozenset({self.primary_of(subdb)})
        return self.processors_holding(subdb)

    def contents_of(self, processor: int) -> FrozenSet[int]:
        """Sub-databases resident in ``processor``'s local memory."""
        if not 0 <= processor < self.num_processors:
            raise ValueError(f"unknown processor {processor}")
        return frozenset(
            subdb
            for subdb, holders in self.replicas.items()
            if processor in holders
        )


def replica_counts_for_rate(
    replication_rate: float, num_processors: int, num_subdatabases: int
) -> List[int]:
    """Per-sub-database copy counts whose mean tracks ``R * m`` exactly.

    ``R * m`` is rarely an integer; rounding it uniformly makes the realized
    affinity degree jump discretely as ``m`` sweeps (e.g. R=30% gives 33%
    affinity at m=6 but 25% at m=8), which injects sawtooth noise into
    scalability curves.  Mixing ``floor`` and ``ceil`` counts across
    sub-databases keeps the mean replica count at ``max(1, R * m)`` for
    every machine size.
    """
    if not 0.0 < replication_rate <= 1.0:
        raise ValueError(
            f"replication_rate must be in (0, 1], got {replication_rate}"
        )
    if num_subdatabases <= 0:
        raise ValueError("num_subdatabases must be positive")
    target = max(1.0, replication_rate * num_processors)
    base = int(target)
    fraction = target - base
    ceil_count = round(fraction * num_subdatabases)
    counts = [
        min(num_processors, base + 1 if i < ceil_count else base)
        for i in range(num_subdatabases)
    ]
    return counts


def place_replicas(
    num_subdatabases: int,
    num_processors: int,
    replication_rate: float,
    rng: random.Random | None = None,
) -> ReplicaPlacement:
    """Spread replicas evenly: primaries round-robin, extras randomized.

    The primary copy of sub-database ``s`` lands on processor ``s mod m``
    (the natural mapping when ``d`` sub-databases are laid onto ``m``
    nodes); additional copies go to distinct processors chosen uniformly,
    so every replication level keeps placement balanced in expectation.
    """
    if num_subdatabases <= 0:
        raise ValueError("num_subdatabases must be positive")
    if num_processors <= 0:
        raise ValueError("num_processors must be positive")
    rng = rng or random.Random(0)
    counts = replica_counts_for_rate(
        replication_rate, num_processors, num_subdatabases
    )
    rng.shuffle(counts)
    replicas: Dict[int, FrozenSet[int]] = {}
    for subdb, copies in enumerate(counts):
        primary = subdb % num_processors
        holders = {primary}
        others = [p for p in range(num_processors) if p != primary]
        extras = min(copies - 1, len(others))
        holders.update(rng.sample(others, extras))
        replicas[subdb] = frozenset(holders)
    return ReplicaPlacement(
        num_subdatabases=num_subdatabases,
        num_processors=num_processors,
        replication_rate=replication_rate,
        replicas=replicas,
    )
