"""Offline schedulability oracles: what was *achievable* for a workload.

Every experiment in the paper reports a raw compliance percentage with no
notion of how many deadlines an omniscient scheduler could have met.
This module closes that gap with two classic offline tests (in the
spirit of Bonifaci & Marchetti-Spaccamela, arXiv:1004.2033):

* a **necessary** condition — the interval demand bound.  For any
  interval ``[t1, t2]``, the tasks whose whole scheduling windows fit
  inside it (``a_i >= t1`` and ``d_i <= t2``) must execute entirely
  within it, so if their total processing time exceeds ``m * (t2 - t1)``
  the workload is provably infeasible, and the size of the violation
  lower-bounds how many of those tasks *any* schedule — preemptive,
  migratory, clairvoyant — must miss.

* a **sufficient** condition — a constructive witness.  A deterministic
  clairvoyant non-preemptive EDF simulation on ``m`` machines with zero
  communication cost; if the witness meets every deadline the workload
  is provably feasible (the witness *is* a schedule).

* an **exact** decision for small instances — when the two bounds
  disagree and the workload has at most :data:`EXACT_TASK_LIMIT` tasks,
  :func:`exact_feasibility` settles the question by branch and bound
  over dispatch orders (every non-preemptive schedule is represented by
  some order with earliest-free-machine placement), so tiny workloads
  never land in the ``unknown`` band unless the node budget runs out.

Workloads passing none of the tests are ``unknown`` — non-preemptive
multiprocessor feasibility is NP-hard, so a gap is unavoidable at scale.

The oracle deliberately idealizes: zero communication, no scheduling
overhead, full clairvoyance.  Its ``hits_upper_bound`` therefore
dominates every real scheduler on every backend, which is exactly what
makes *regret* (misses the ideal could have avoided) well defined and
what the conformance suite's soundness battery checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Sequence, Tuple

#: Its own copy of the core tolerance: the oracle imports nothing from repro.
EPSILON = 1e-9

#: Verdict labels, in decreasing order of good news.
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SchedulabilityVerdict:
    """Outcome of the offline oracle for one (workload, m) pair.

    ``hits_upper_bound`` is the oracle's proven ceiling on deadline hits
    (``total_tasks - forced_misses``); ``witness_hits`` is the floor the
    constructive EDF witness actually achieved.  Any real scheduler's
    hits land in ``[0, hits_upper_bound]``.
    """

    verdict: str
    total_tasks: int
    workers: int
    impossible_tasks: int
    forced_misses: int
    hits_upper_bound: int
    witness_hits: int

    def regret(self, deadline_hits: int) -> int:
        """Misses the ideal scheduler provably could have avoided."""
        return max(0, self.hits_upper_bound - deadline_hits)

    def compliance_vs_bound(self, deadline_hits: int) -> float:
        """Fraction of the proven ceiling a run actually achieved."""
        if self.hits_upper_bound <= 0:
            return 1.0
        return min(1.0, deadline_hits / self.hits_upper_bound)

    def as_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "total_tasks": self.total_tasks,
            "workers": self.workers,
            "impossible_tasks": self.impossible_tasks,
            "forced_misses": self.forced_misses,
            "hits_upper_bound": self.hits_upper_bound,
            "witness_hits": self.witness_hits,
        }


def _forced_misses_by_demand(
    tasks: Sequence[Tuple[float, float, float]], workers: int
) -> int:
    """Lower bound on misses forced by the interval demand bound.

    For every candidate interval ``[t1, t2]`` (``t1`` over arrivals,
    ``t2`` over deadlines) the contained demand may exceed the supply
    ``m * (t2 - t1)``; on the most violated interval, the minimum number
    of contained tasks whose removal restores the bound — removing
    largest first — is a sound lower bound on misses.  O(n^2 log n).
    """
    if not tasks:
        return 0
    by_deadline = sorted(tasks, key=lambda t: t[2])  # one sort, reused
    starts = sorted({a for a, _, _ in tasks})
    best = 0
    for t1 in starts:
        # Tasks whose windows start at or after t1, swept in deadline
        # order: each prefix is exactly the contained set of [t1, d].
        demand = 0.0
        sizes = []
        worst = None  # (excess, supply, contained_count)
        for arrival, processing, deadline in by_deadline:
            if arrival < t1 - EPSILON:
                continue
            demand += processing
            sizes.append(processing)
            supply = workers * (deadline - t1)
            excess = demand - supply
            if excess > EPSILON and (worst is None or excess > worst[0]):
                worst = (excess, supply, len(sizes))
        if worst is None:
            continue
        _, supply, count = worst
        # Remove largest contained tasks until the interval fits again.
        removed = 0
        remaining = sum(sizes[:count])
        for size in sorted(sizes[:count], reverse=True):
            if remaining <= supply + EPSILON:
                break
            remaining -= size
            removed += 1
        best = max(best, removed)
    return best


def _witness_hits(
    tasks: Sequence[Tuple[float, float, float]], workers: int
) -> int:
    """Deadline hits achieved by a clairvoyant non-preemptive EDF witness.

    Zero communication, ``m`` identical machines, global EDF order with a
    deterministic tie-break; tasks that can no longer meet their deadline
    are dropped without occupying a machine.  The result is a *valid*
    schedule, so its hit count is a constructive feasibility floor.
    """
    machines = [0.0] * workers
    hits = 0
    # EDF order; ties broken by arrival then size for determinism.
    for arrival, processing, deadline in sorted(
        tasks, key=lambda t: (t[2], t[0], t[1])
    ):
        free = min(range(workers), key=lambda i: (machines[i], i))
        start = max(machines[free], arrival)
        end = start + processing
        if end <= deadline + EPSILON:
            machines[free] = end
            hits += 1
    return hits


#: Largest instance the exact branch-and-bound test attempts.
EXACT_TASK_LIMIT = 12

#: Search-node budget before :func:`exact_feasibility` gives up (None).
EXACT_NODE_LIMIT = 200_000


class _NodeBudgetExhausted(Exception):
    """Internal: the branch-and-bound hit its node limit."""


def exact_feasibility(
    tasks: Sequence[Tuple[float, float, float]], workers: int
) -> "bool | None":
    """Exact non-preemptive feasibility on ``m`` identical machines.

    Branch and bound over *dispatch orders*: any non-preemptive schedule
    can be normalized, without changing which deadlines are met, into
    one where tasks are started in some fixed order and the i-th started
    task takes the earliest-free machine (start ``max(f_min, a_i)``) —
    later-free machines only shrink the availability vector, and
    deliberate idling is expressed by sequencing the waited-for task
    earlier.  Searching all orders with that placement rule is therefore
    complete.

    Pruning: a prefix dies as soon as *any* remaining task can no longer
    meet its deadline even if dispatched immediately (machine free times
    are non-decreasing along a branch); identical remaining triples
    branch once; visited ``(remaining, free-times)`` states memoize.

    Returns True when a schedule meeting every deadline exists, False
    when provably none does, None when :data:`EXACT_NODE_LIMIT` ran out — the
    caller keeps its ``unknown``.  Exponential in the worst case: callers
    gate on :data:`EXACT_TASK_LIMIT`.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    ordered = sorted(tasks, key=lambda t: (t[2], t[0], t[1]))
    n = len(ordered)
    if n == 0:
        return True
    if workers >= n:
        # One machine per task: start each at its arrival.
        return all(a + p <= d + EPSILON for a, p, d in ordered)
    seen = set()
    nodes = 0

    def dfs(remaining: int, frees: Tuple[float, ...]) -> bool:
        nonlocal nodes
        if remaining == 0:
            return True
        nodes += 1
        if nodes > EXACT_NODE_LIMIT:
            raise _NodeBudgetExhausted
        key = (remaining, frees)
        if key in seen:
            return False
        seen.add(key)
        f_min = frees[0]
        for index in range(n):
            if remaining >> index & 1:
                a, p, d = ordered[index]
                if max(f_min, a) + p > d + EPSILON:
                    return False  # free times only grow: hopeless
        tried = set()
        for index in range(n):  # EDF-first branch order
            if not (remaining >> index & 1):
                continue
            triple = ordered[index]
            if triple in tried:
                continue  # identical task: identical subtree
            tried.add(triple)
            a, p, _ = triple
            start = max(f_min, a)
            successor = tuple(sorted(frees[1:] + (round(start + p, 9),)))
            if dfs(remaining & ~(1 << index), successor):
                return True
        return False

    try:
        return dfs((1 << n) - 1, (0.0,) * workers)
    except _NodeBudgetExhausted:
        return None


#: Verdicts :func:`_analyze` remembers.  Its key is the whole workload as
#: float triples (about 0.4 MB at 3000 tasks), so the cache is sized for
#: the callers that repeat themselves — the schedulers of one figure cell
#: asking about the same few seeds back to back — and no larger: what it
#: retains must not grow with the length of a sweep.
ORACLE_CACHE_ENTRIES = 4


@lru_cache(maxsize=ORACLE_CACHE_ENTRIES)
def _analyze(
    tasks: Tuple[Tuple[float, float, float], ...], workers: int
) -> SchedulabilityVerdict:
    total = len(tasks)
    impossible = sum(
        1 for a, p, d in tasks if a + p > d + EPSILON
    )
    possible = tuple(
        (a, p, d) for a, p, d in tasks if a + p <= d + EPSILON
    )
    # Impossible tasks miss in any schedule; the demand bound then forces
    # further misses among the remaining (disjoint) tasks.
    forced = impossible + _forced_misses_by_demand(possible, workers)
    witness = _witness_hits(possible, workers)
    if forced > 0:
        verdict = INFEASIBLE
    elif witness == total:
        verdict = FEASIBLE
    else:
        verdict = UNKNOWN
    if verdict == UNKNOWN and total <= EXACT_TASK_LIMIT:
        # Both bounds were silent and the instance is small: settle it.
        # (forced == 0 here implies impossible == 0, so possible == tasks.)
        exact = exact_feasibility(possible, workers)
        if exact is True:
            verdict = FEASIBLE
        elif exact is False:
            # Provably at least one miss in any non-preemptive schedule.
            verdict = INFEASIBLE
            forced = 1
    return SchedulabilityVerdict(
        verdict=verdict,
        total_tasks=total,
        workers=workers,
        impossible_tasks=impossible,
        forced_misses=forced,
        hits_upper_bound=total - forced,
        witness_hits=witness,
    )


def analyze_tasks(tasks: Iterable, workers: int) -> SchedulabilityVerdict:
    """Run the oracle over task objects (``arrival_time``/``processing_time``/
    ``deadline`` attributes) on ``workers`` identical machines."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    key = tuple(
        sorted(
            (
                float(t.arrival_time),
                float(t.processing_time),
                float(t.deadline),
            )
            for t in tasks
        )
    )
    return _analyze(key, workers)


def analyze_triples(
    triples: Iterable[Tuple[float, float, float]], workers: int
) -> SchedulabilityVerdict:
    """Run the oracle over raw ``(arrival, processing, deadline)`` triples
    — the trace-analysis path, which has no Task objects."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    key = tuple(
        sorted((float(a), float(p), float(d)) for a, p, d in triples)
    )
    return _analyze(key, workers)


def regret_section(
    verdict: SchedulabilityVerdict, deadline_hits: int
) -> Dict[str, object]:
    """The ``regret`` payload attached to run reports and figure exports."""
    section = verdict.as_dict()
    section["deadline_hits"] = deadline_hits
    section["regret_misses"] = verdict.regret(deadline_hits)
    section["compliance_vs_bound"] = verdict.compliance_vs_bound(
        deadline_hits
    )
    return section


def unknown_regret_section(total_tasks: int, workers: int) -> Dict[str, object]:
    """Placeholder for backends the oracle cannot reconstruct offline."""
    return {
        "verdict": UNKNOWN,
        "total_tasks": total_tasks,
        "workers": workers,
        "impossible_tasks": 0,
        "forced_misses": 0,
        "hits_upper_bound": total_tasks,
        "witness_hits": 0,
        "deadline_hits": 0,
        "regret_misses": 0,
        "compliance_vs_bound": 1.0,
    }
