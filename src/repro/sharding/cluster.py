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

Inter-domain migration is a direct call: the masters share the
launcher's process and thread, so after each master's step the broker
runs the one offer round (:func:`~repro.sharding.migration.offer_leftovers`,
the simulator's own) over its leftovers and the peers' loads, and hands
every accepted task over itself — the origin releases its record
(:meth:`~repro.cluster.master.ClusterMaster.release_migrated`), the target
opens one and admits the task
(:meth:`~repro.cluster.master.ClusterMaster.adopt_migrated`).  Offers are
one-hop and the owning record moves with the task, so every migrated
task — and its guarantee, earned through the target's normal dispatch
re-check — is accounted exactly once in the merged report.

The merged :class:`~repro.runtime.report.RunReport` keeps
``backend="cluster"`` (same wire physics, same schema) and one ``extras``
shape at every ``k``: the partition and the per-domain ports; the
migration counts ride in the schema-stable ``migration`` section, exactly
like the simulator's (empty for a lone domain).
"""

from __future__ import annotations

from typing import Sequence, Set

from ..cluster.config import ClusterConfig
from ..cluster.master import ClusterMaster
from ..core.domains import DomainAssignment
from ..observability import Instrumentation
from ..runtime.driver import interleave_phases
from ..runtime.ledger import TaskLedger
from ..runtime.report import RunReport
from .migration import MigrationStats, offer_leftovers


class MigrationBroker:
    """Steps the masters of one run and moves work between them.

    Owns the run's :class:`~repro.sharding.migration.MigrationStats` and
    the set of task ids already offered; a lone master has no peer, so
    the paper's machine never offers.
    """

    def __init__(self, config: ClusterConfig, obs: Instrumentation) -> None:
        self.config = config
        self.stats = MigrationStats()
        #: Task ids that may not migrate (offered once, or migrated in).
        self.barred: Set[int] = set()
        #: Holds no records (a hand-off is booked by ``release`` on the
        #: origin's ledger and ``open`` on the target's); it notes the
        #: offers, whose events carry neither master's bound context.
        self.ledger = TaskLedger(obs)

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
        """The one offer round for ``origin``; True iff a peer took work."""
        peers = [master for master in masters if master is not origin]
        if not peers:
            return False  # the one-domain case: no one to hand work to
        target, migrated = offer_leftovers(
            origin,
            peers,
            origin.vnow(),
            self.config.experiment.remote_cost,
            self.stats,
            self.barred,
            self.ledger,
        )
        for task in migrated:
            origin.release_migrated(task.task_id)
            target.adopt_migrated(task)
        return bool(migrated)


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
        phases=interleave_phases(report.phases for report in reports),
        # A lone domain has no ledger to show (the simulator's rule).
        migration=stats.as_section() if assignment.sharded else {},
        extras={
            "port": ports[0],
            "ports": ports,
            "partition": assignment.as_dict(),
        },
    )
