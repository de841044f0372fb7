"""Inter-domain migration: the handoff decision and its accounting.

A domain offers a task to a peer only when its own feasibility search
failed to place it; the peer accepts only when the quick guarantee check
(:func:`can_guarantee`) says some worker can still finish the task by its
deadline, communication included.  The check is deliberately the same
arithmetic on both backends — the simulator peeks at peer loads
in-process, the live masters carry the same fields in ``MIGRATE_OFFER``
frames — so sim and cluster accept/decline the same offers under the
same loads.

One-hop discipline: a task is offered at most once and never re-migrated
after acceptance; a declined offer bars the task and it falls back to the
origin domain's normal surrender/expiry path.  :class:`MigrationStats`
is the single source of the report's ``migration`` section, so counts
cannot drift between backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from ..core.feasibility import EPSILON
from ..core.task import Task


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

    ``offers == accepted + declined + timeouts`` always holds (the live
    protocol's timeout counts as a decline the peer never voiced), and
    per-domain flows satisfy ``sum(out_by_domain) == offers`` and
    ``sum(in_by_domain) == accepted``.
    """

    offers: int = 0
    accepted: int = 0
    declined: int = 0
    timeouts: int = 0
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

    def record_timeout(self) -> None:
        self.timeouts += 1

    def as_section(self) -> Dict[str, object]:
        """The ``RunReport.migration`` payload (stable keys, sorted maps)."""
        return {
            "offers": self.offers,
            "accepted": self.accepted,
            "declined": self.declined,
            "timeouts": self.timeouts,
            "out_by_domain": {
                str(d): n for d, n in sorted(self.out_by_domain.items())
            },
            "in_by_domain": {
                str(d): n for d, n in sorted(self.in_by_domain.items())
            },
        }
