"""Live inter-domain migration and the merged report of a ``k``-domain run.

:func:`~repro.cluster.launcher.launch_cluster` is the live counterpart of
:class:`~repro.simulator.runtime.DistributedRuntime`: the worker fleet is
partitioned into scheduling domains, each domain gets its own in-process
:class:`~repro.cluster.master.ClusterMaster` (the one master class, handed
its slice of the fleet and its routed tasks as data, with its own TCP hub
and its own feasibility-search state), and every master's
:meth:`~repro.cluster.master.ClusterMaster.step` is round-robined through
the launcher's one thread.  This module holds what the launcher runs
between the masters: the :class:`MigrationBroker` (that round-robin and
the offers it interleaves) and :func:`merge_reports`.

Inter-domain migration rides the v4 protocol frames: when a domain's
search leaves tasks unplaced after a phase, the broker sends a
``MIGRATE_OFFER`` — over a real TCP connection into the target master's
hub — to the least-loaded peer domain.  The target answers
``MIGRATE_ACCEPT`` (it admitted the task and now owns its record) or
``MIGRATE_DECLINE``; an unanswered offer times out at the origin and is
counted separately.  Offers are one-hop and the owning record moves with
the task, so every migrated task — and its guarantee, earned through the
target's normal dispatch re-check — is accounted exactly once in the
merged report.

The merged :class:`~repro.runtime.report.RunReport` keeps
``backend="cluster"`` (same wire physics, same schema) and one ``extras``
shape at every ``k``: the partition and the per-domain ports; the
migration counts ride in the schema-stable ``migration`` section, exactly
like the simulator's (empty for a lone domain).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from ..cluster import protocol
from ..cluster.config import ClusterConfig
from ..cluster.master import ClusterMaster
from ..cluster.network import ConnectionLost, WorkerChannel
from ..core.domains import DomainAssignment
from ..core.task import Task
from ..observability import Instrumentation
from ..runtime.ledger import TaskLedger
from ..runtime.report import RunReport
from .migration import MigrationStats

#: Wall-clock budget for one offer's round trip before it counts as a
#: timeout.  Generous against the in-process reality (the broker pumps
#: the target master while waiting), tight against a wedged peer.
OFFER_TIMEOUT_SECONDS = 2.0


class MigrationBroker:
    """Negotiates handoffs between the masters of one run, origin side.

    Owns the run's :class:`~repro.sharding.migration.MigrationStats` ledger
    and one peer channel per target master — the path into that master's
    hub for MIGRATE frames, dialled on the first offer to it.  These
    connections never say HELLO, so they are invisible to the worker
    registries; a lone master is never a target, so the paper's machine
    opens none.
    """

    def __init__(self, config: ClusterConfig, obs: Instrumentation) -> None:
        self.config = config
        self.stats = MigrationStats()
        #: Holds no records (a hand-off is booked by ``release`` on the
        #: origin's ledger and ``open`` on the target's); it notes the
        #: offers, whose events carry neither master's bound context.
        self.ledger = TaskLedger(obs)
        self._channels: Dict[int, WorkerChannel] = {}

    def close(self) -> None:
        """Hang up every peer channel."""
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()

    def drive(self, masters: Sequence[ClusterMaster]) -> None:
        """Round-robin the masters' step loops until every domain is done.

        A migration accepted this round can hand new work to a master that
        already reported finished, so the loop only exits on a full round
        with every master finished and no accepted handoff.
        """
        while True:
            migrated = False
            done = True
            for origin in masters:
                finished = origin.step()
                migrated |= self.offer_leftovers(origin, masters)
                done = done and finished
            if done and not migrated:
                return

    def offer_leftovers(
        self, origin: ClusterMaster, masters: Sequence[ClusterMaster]
    ) -> bool:
        """Offer the origin's unplaceable leftovers to least-loaded peers.

        Returns True iff at least one offer was accepted.  Every candidate
        is barred before its offer goes out, so a task is offered at most
        once for the whole run regardless of the outcome.
        """
        peers = [master for master in masters if master is not origin]
        if not peers:
            return False  # the one-domain case: no one to hand work to
        accepted_any = False
        for task in origin.migration_candidates():
            # Least mean-loaded peer with a live worker (ties: lowest id).
            target = min(peers, key=lambda peer: peer.mean_load())
            if target.mean_load() == float("inf"):
                break  # no peer has a live worker; nothing can take handoffs
            origin.bar_migration(task.task_id)
            accepted_any |= self._offer(task, origin, target)
        return accepted_any

    def _offer(
        self, task: Task, origin: ClusterMaster, target: ClusterMaster
    ) -> bool:
        """One offer's full round trip; True iff the target took the task."""
        stats = self.stats
        origin_d = origin.domain.domain_id
        target_d = target.domain.domain_id
        hop = {"from_domain": origin_d, "to_domain": target_d}
        offer_id = stats.offers  # origin-scoped, strictly increasing
        stats.record_offer(origin_d)
        note = self.ledger.note
        note("migration_offered", task.task_id, origin.vnow(), **hop)
        try:
            channel = self._channel_to(target)
            channel.send(
                protocol.migrate_offer(
                    offer_id=offer_id,
                    origin_domain=origin_d,
                    task_id=task.task_id,
                    arrival=task.arrival_time,
                    processing=task.processing_time,
                    deadline=task.deadline,
                    affinity=task.affinity,
                    mono=time.monotonic(),
                )
            )
            reply = _await_reply(target, channel, offer_id)
        except ConnectionLost:
            reply = None
        if reply is None:
            stats.record_timeout()
            note(
                "migration_declined", task.task_id, origin.vnow(),
                reason="timeout", **hop,
            )
            return False
        if reply.get("type") == protocol.MIGRATE_ACCEPT:
            origin.release_migrated(task.task_id)
            stats.record_accept(target_d)
            note("migrated", task.task_id, origin.vnow(), **hop)
            return True
        stats.record_decline()
        note(
            "migration_declined",
            task.task_id,
            origin.vnow(),
            reason=str(reply.get("reason", "infeasible")),
            **hop,
        )
        return False

    def _channel_to(self, target: ClusterMaster) -> WorkerChannel:
        channel = self._channels.get(target.port)
        if channel is None:
            channel = self._channels[target.port] = WorkerChannel.connect(
                self.config.host, target.port
            )
        return channel


def _await_reply(
    target: ClusterMaster,
    channel: WorkerChannel,
    offer_id: int,
) -> Optional[Dict]:
    """Pump the target master until it answers this offer (or timeout).

    One thread owns every master's step loop, so the target can only
    process the offer frame when stepped from here; replies to other
    (stale) offers are discarded — each negotiation is strictly
    sequential.
    """
    deadline = time.monotonic() + OFFER_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        target.step()
        for message in channel.poll(0.05):
            if int(message.get("offer_id", -1)) != offer_id:
                continue
            if message.get("type") in (
                protocol.MIGRATE_ACCEPT,
                protocol.MIGRATE_DECLINE,
            ):
                return message
    return None


def merge_reports(
    masters: Sequence[ClusterMaster],
    assignment: DomainAssignment,
    stats: MigrationStats,
) -> RunReport:
    """One fleet-wide report from the run's masters (``k`` may be 1).

    The counted fields sum the masters' ledgers (each task's record lives
    in exactly one domain — the target's after an accepted migration),
    makespan is the latest finish on the shared clock, and the phase list
    interleaves every domain's phases in start order like the simulator's
    merge.
    """
    reports = [master.report() for master in masters]
    ports = [report.port for report in reports]
    return RunReport.from_ledgers(
        [master.ledger for master in masters],
        backend=reports[0].backend,
        scheduler_name=reports[0].scheduler_name,
        num_workers=assignment.num_workers,
        seed=reports[0].seed,
        workers_lost=sum(r.workers_lost for r in reports),
        makespan=max(r.makespan for r in reports),
        wall_seconds=max(r.wall_seconds for r in reports),
        phases=sorted(
            (phase for report in reports for phase in report.phases),
            key=lambda p: (p.start, p.end, p.index),
        ),
        # A lone domain has no ledger to show (the simulator's rule).
        migration=stats.as_section() if assignment.sharded else {},
        extras={
            "port": ports[0],
            "ports": ports,
            "partition": assignment.as_dict(),
        },
    )
