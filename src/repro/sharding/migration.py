"""Inter-domain migration: the offer round, its decision and its accounting.

A domain offers a task to a peer only when its own feasibility search
failed to place it; the peer accepts only when the quick guarantee check
(:func:`can_guarantee`) says some worker can still finish the task by its
deadline, communication included.  Both backends run the one round,
:func:`offer_leftovers`: the simulator's hosts and the live masters of one
run live in one process, so the round reads the peers' loads directly and
each caller only hands the accepted tasks over its own way.  The two
backends therefore accept/decline the same offers under the same loads.

One-hop discipline: a task is offered at most once and never re-migrated
after acceptance; a declined offer bars the task and it falls back to the
origin domain's normal surrender/expiry path.  :class:`MigrationStats`
is the single source of the report's ``migration`` section, so counts
cannot drift between backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from ..core.feasibility import EPSILON
from ..core.task import Task

if TYPE_CHECKING:
    from ..runtime.ledger import TaskLedger


def can_guarantee(
    task: Task,
    now: float,
    loads: Sequence[float],
    workers: Sequence[int],
    remote_cost: float,
) -> bool:
    """Whether some worker of a domain can still meet ``task``'s deadline.

    ``loads`` and ``workers`` are aligned: ``loads[i]`` is the remaining
    work queued on global worker ``workers[i]``.  The check mirrors the
    feasibility test's arithmetic — earliest start is behind the queued
    load, cost is ``p`` plus the wormhole model's constant ``C`` for a
    non-affine worker — but over a single task, so a peer can answer an
    offer in O(m/k) without running a search.  A True here is a necessary
    condition, not a guarantee: the real search still decides placement
    (and may interleave other work), so accepted tasks re-earn their
    guarantee through the normal phase path on the target.
    """
    affinity = task.affinity
    for load, worker in zip(loads, workers):
        comm = 0.0 if worker in affinity else remote_cost
        finish = now + load + task.processing_time + comm
        if finish <= task.deadline + EPSILON:
            return True
    return False


@dataclass
class MigrationStats:
    """Every migration decision of one sharded run, accounted once.

    ``offers == accepted + declined`` always holds, and per-domain flows
    satisfy ``sum(out_by_domain) == offers`` and
    ``sum(in_by_domain) == accepted``.
    """

    offers: int = 0
    accepted: int = 0
    declined: int = 0
    #: Offers sent, keyed by origin domain id.
    out_by_domain: Dict[int, int] = field(default_factory=dict)
    #: Accepted handoffs, keyed by target domain id.
    in_by_domain: Dict[int, int] = field(default_factory=dict)

    def record_offer(self, origin: int) -> None:
        self.offers += 1
        self.out_by_domain[origin] = self.out_by_domain.get(origin, 0) + 1

    def record_accept(self, target: int) -> None:
        self.accepted += 1
        self.in_by_domain[target] = self.in_by_domain.get(target, 0) + 1

    def record_decline(self) -> None:
        self.declined += 1

    def as_section(self) -> Dict[str, object]:
        """The ``RunReport.migration`` payload (stable keys, sorted maps)."""
        return {
            "offers": self.offers,
            "accepted": self.accepted,
            "declined": self.declined,
            "out_by_domain": {
                str(d): n for d, n in sorted(self.out_by_domain.items())
            },
            "in_by_domain": {
                str(d): n for d, n in sorted(self.in_by_domain.items())
            },
        }


def offer_leftovers(
    origin,
    peers: Sequence,
    now: float,
    remote_cost: float,
    stats: MigrationStats,
    barred: Set[int],
    ledger: "TaskLedger",
) -> Tuple[object, List[Task]]:
    """One offer round: each of the origin's leftovers to one peer, once.

    ``origin`` and ``peers`` are the domain hosts of one run, simulated
    (:class:`~repro.simulator.runtime.DomainHost`) or live
    (:class:`~repro.cluster.master.ClusterMaster`), read through what both
    have: ``domain_id``, ``driver.batch``, ``ledger.records``,
    ``loads(now)`` and ``view.workers``.

    Candidates are the batch leftovers that are neither ``barred`` nor
    expired, in task-id order, with their original (global-id) affinities
    from the origin's records.  The target is the peer with the lowest
    mean finite load (ties to the lowest domain id), read once: nothing
    in the round moves a worker's load.  Every candidate is barred,
    counted in ``stats`` and noted on ``ledger`` whatever the answer.

    Returns the target and the tasks it accepted (``(None, [])`` when
    there was nothing to offer); handing them over is the caller's.
    """
    leftovers = sorted(origin.driver.batch.tasks(), key=lambda t: t.task_id)
    candidates = [
        origin.ledger.records[stale.task_id].task  # original affinity
        for stale in leftovers
        if stale.task_id not in barred and not stale.is_expired(now)
    ]
    if not candidates:
        return None, []
    # Loads before views: a live master's loads() is what refreshes its
    # view after a worker joined or was lost.
    readings = [(peer.loads(now), peer) for peer in peers]
    loads, target = min(
        readings,
        key=lambda reading: (_mean_load(reading[0]), reading[1].domain_id),
    )
    workers = target.view.workers
    hop = {"from_domain": origin.domain_id, "to_domain": target.domain_id}
    accepted: List[Task] = []
    for task in candidates:
        barred.add(task.task_id)
        stats.record_offer(origin.domain_id)
        ledger.note("migration_offered", task.task_id, now, **hop)
        if can_guarantee(task, now, loads, workers, remote_cost):
            stats.record_accept(target.domain_id)
            accepted.append(task)
            outcome = "migrated"
        else:
            stats.record_decline()
            outcome = "migration_declined"
        ledger.note(outcome, task.task_id, now, **hop)
    return target, accepted


def _mean_load(loads: Sequence[float]) -> float:
    """Mean remaining work per live worker (inf with none live)."""
    finite = [load for load in loads if load != float("inf")]
    if not finite:
        return float("inf")
    return sum(finite) / len(finite)
