"""Scheduling-domain partitioning: split ``m`` workers into ``k`` shards.

The paper dedicates one scheduling processor to the whole system, so the
master's vertices/s caps total throughput no matter how many workers
join.  Sharding breaks that ceiling by partitioning the worker set into
*scheduling domains*, each driven by its own RT-SADS master; this module
is the backend-neutral core of that refactor — the partition itself.

A :class:`DomainAssignment` is a frozen, picklable description of one
partition: every worker id in ``range(num_workers)`` appears in exactly
one domain, and the tuple-of-tuples layout makes the assignment hashable
so it can key a dict and cross the spawn boundary.

Three policies build assignments (:func:`partition_workers`):

``hash``
    ``worker % k`` — the naive baseline: ignores the workload entirely.

``worst-fit``
    Worst-fit-decreasing utilization packing (Chen's sporadic bin-packing
    heuristic): each worker's *attracted utilization* is the share of
    workload processing time whose affinity points at it; workers are
    placed heaviest-first onto the least-utilized domain, under a
    ``ceil(m / k)`` size cap so no domain starves another of workers.

``affinity``
    Communication-affinity clustering (Lupu et al.'s partitioning-scheme
    evaluation): workers that co-occur in task affinity sets attract each
    other; a greedy agglomeration seeds ``k`` domains with the most
    "social" unplaced workers and grows each by strongest co-occurrence,
    so tasks tend to find their whole affinity set inside one domain and
    pay no remote cost after sharding.

All three are pure functions of ``(num_workers, k, tasks)`` — the
workload is itself a pure function of the seed, so assignments are
deterministic per seed by construction (the property suite asserts it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .task import Task


@dataclass(frozen=True)
class DomainAssignment:
    """One partition of ``range(num_workers)`` into scheduling domains.

    ``domains[d]`` is the sorted tuple of global worker ids owned by
    domain ``d``.  Frozen and hashable: an assignment is part of a run's
    identity (it feeds routing and report merging) and must survive
    pickling into spawn-pool children unchanged.
    """

    num_workers: int
    policy: str
    domains: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        seen: Dict[int, int] = {}
        for index, members in enumerate(self.domains):
            if not members:
                raise ValueError(f"domain {index} is empty")
            if tuple(sorted(members)) != tuple(members):
                raise ValueError(f"domain {index} members must be sorted")
            for worker in members:
                if worker in seen:
                    raise ValueError(
                        f"worker {worker} appears in domains "
                        f"{seen[worker]} and {index}"
                    )
                seen[worker] = index
        if set(seen) != set(range(self.num_workers)):
            missing = sorted(set(range(self.num_workers)) - set(seen))
            raise ValueError(f"workers {missing} not assigned to any domain")

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def sharded(self) -> bool:
        """Whether domains have peers.  A lone domain is the paper's
        single master: no domain fields in its trace, no migration ledger
        in its report, on the simulator and the live cluster alike."""
        return len(self.domains) > 1

    def header_fields(self, **extra: object) -> Dict[str, object]:
        """What a sharded run's ``run_start``/``run_end`` trace headers
        add — the domain count plus ``extra``; nothing for a lone domain."""
        return {"domains": self.num_domains, **extra} if self.sharded else {}

    def domain_of(self, worker_id: int) -> int:
        """The domain owning ``worker_id``; raises on unknown workers."""
        for index, members in enumerate(self.domains):
            if worker_id in members:
                return index
        raise KeyError(f"worker {worker_id} is not in any domain")

    def workers_of(self, domain: int) -> Tuple[int, ...]:
        """Sorted global worker ids owned by ``domain``."""
        return self.domains[domain]

    def route(self, task: Task) -> int:
        """Home domain for ``task``: affinity plurality, id-hash fallback.

        The domain holding the most of the task's affinity set wins (it
        minimizes expected communication cost after sharding); ties break
        to the lowest domain id for determinism, and tasks whose affinity
        overlaps no domain (or is empty) hash on ``task_id`` so load
        still spreads.
        """
        best = -1
        best_overlap = 0
        for index, members in enumerate(self.domains):
            overlap = len(task.affinity.intersection(members))
            if overlap > best_overlap:
                best_overlap = overlap
                best = index
        if best >= 0:
            return best
        return task.task_id % self.num_domains

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for trace events and report extras."""
        return {
            "num_workers": self.num_workers,
            "policy": self.policy,
            "domains": [list(members) for members in self.domains],
        }


def partition_workers(
    num_workers: int,
    num_domains: int,
    policy: str = "hash",
    tasks: Optional[Sequence[Task]] = None,
) -> DomainAssignment:
    """Partition ``num_workers`` workers into ``num_domains`` domains.

    ``tasks`` informs the workload-aware policies (``worst-fit`` and
    ``affinity``); both degrade gracefully to balanced round-robin
    behaviour when it is ``None`` or carries no affinity information.
    Deterministic: equal inputs always produce equal assignments.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if num_domains <= 0:
        raise ValueError("num_domains must be positive")
    if num_domains > num_workers:
        raise ValueError(
            f"cannot split {num_workers} workers into {num_domains} "
            "non-empty domains"
        )
    if policy not in PARTITION_POLICIES:
        raise ValueError(
            f"policy must be one of {PARTITION_POLICIES}, got {policy!r}"
        )
    task_list = list(tasks) if tasks is not None else []
    members = _PARTITIONERS[policy](num_workers, num_domains, task_list)
    return DomainAssignment(
        num_workers=num_workers,
        policy=policy,
        domains=tuple(tuple(sorted(group)) for group in members),
    )


def _hash_partition(
    num_workers: int, num_domains: int, tasks: Sequence[Task]
) -> List[List[int]]:
    """``worker % k``: the workload-blind baseline."""
    groups: List[List[int]] = [[] for _ in range(num_domains)]
    for worker in range(num_workers):
        groups[worker % num_domains].append(worker)
    return groups


def _attracted_utilization(
    num_workers: int, tasks: Sequence[Task]
) -> List[float]:
    """Per-worker share of workload processing time its affinity attracts.

    A task's processing time splits evenly over its affinity set (any of
    those workers can serve it for free); affinity-less tasks attract no
    one in particular and are ignored.
    """
    load = [0.0] * num_workers
    for task in tasks:
        homes = [w for w in task.affinity if 0 <= w < num_workers]
        if not homes:
            continue
        share = task.processing_time / len(homes)
        for worker in homes:
            load[worker] += share
    return load


def _worst_fit_partition(
    num_workers: int, num_domains: int, tasks: Sequence[Task]
) -> List[List[int]]:
    """Worst-fit-decreasing packing of workers by attracted utilization."""
    load = _attracted_utilization(num_workers, tasks)
    cap = math.ceil(num_workers / num_domains)
    # Heaviest first; ties break to the lower worker id so the packing is
    # a pure function of the (workload, m, k) triple.
    order = sorted(range(num_workers), key=lambda w: (-load[w], w))
    groups: List[List[int]] = [[] for _ in range(num_domains)]
    totals = [0.0] * num_domains
    for position, worker in enumerate(order):
        # Once only as many workers remain as there are empty domains,
        # each must seed one — otherwise uniform loads would fill early
        # domains to cap and leave trailing domains empty.
        remaining = num_workers - position
        empty = [d for d in range(num_domains) if not groups[d]]
        if empty and len(empty) >= remaining:
            candidates = empty
        else:
            candidates = [
                d for d in range(num_domains) if len(groups[d]) < cap
            ]
        target = min(candidates, key=lambda d: (totals[d], d))
        groups[target].append(worker)
        totals[target] += load[worker]
    return groups


def _affinity_partition(
    num_workers: int, num_domains: int, tasks: Sequence[Task]
) -> List[List[int]]:
    """Greedy agglomeration by pairwise affinity co-occurrence.

    Workers appearing together in many affinity sets should share a
    domain: a task whose whole affinity set lands in one domain pays zero
    communication after sharding.  Each domain is seeded with the most
    connected unplaced worker, then grown by strongest attachment to its
    current members, under the same ``ceil(m / k)`` cap as worst-fit.
    """
    weight: Dict[Tuple[int, int], float] = {}
    degree = [0.0] * num_workers
    for task in tasks:
        homes = sorted(w for w in task.affinity if 0 <= w < num_workers)
        for i, a in enumerate(homes):
            degree[a] += task.processing_time
            for b in homes[i + 1:]:
                key = (a, b)
                weight[key] = weight.get(key, 0.0) + task.processing_time

    def pair_weight(a: int, b: int) -> float:
        return weight.get((a, b) if a < b else (b, a), 0.0)

    cap = math.ceil(num_workers / num_domains)
    unplaced = set(range(num_workers))
    groups: List[List[int]] = []
    for _ in range(num_domains):
        seed = min(unplaced, key=lambda w: (-degree[w], w))
        unplaced.discard(seed)
        group = [seed]
        while len(group) < cap and unplaced:
            # Leave enough workers for the remaining domains' seeds.
            remaining_domains = num_domains - len(groups) - 1
            if len(unplaced) <= remaining_domains:
                break
            best = min(
                unplaced,
                key=lambda w: (
                    -sum(pair_weight(w, member) for member in group),
                    -degree[w],
                    w,
                ),
            )
            unplaced.discard(best)
            group.append(best)
        groups.append(group)
    # Anything left (possible when caps round awkwardly) goes to the
    # smallest domain, lowest id first.
    for worker in sorted(unplaced):
        target = min(range(num_domains), key=lambda d: (len(groups[d]), d))
        groups[target].append(worker)
    return groups


#: policy name -> ``(num_workers, num_domains, tasks)`` partitioner.
_PARTITIONERS = {
    "hash": _hash_partition,
    "worst-fit": _worst_fit_partition,
    "affinity": _affinity_partition,
}

#: Registered partitioning policies, CLI-visible order.
PARTITION_POLICIES = tuple(_PARTITIONERS)
