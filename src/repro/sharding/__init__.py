"""Sharded multi-master scheduling: domains, migration, merged reports.

The paper dedicates *one* scheduling processor to the whole system, so its
vertices/s caps total throughput no matter how many workers join — the
flattening every fig5-style curve shows at high ``m``.  This package
breaks that ceiling: workers are partitioned into ``k`` scheduling
*domains* (:mod:`repro.core.domains`), each driven by its own
``PhaseDriver``-backed master, searching concurrently; when a domain's
feasibility search cannot guarantee a task locally, it offers the task to
the least-loaded peer domain (one-hop handoff, declined offers fall back
to the local surrender path).

Two compositions exist over the same core:

* :class:`~repro.simulator.runtime.DistributedRuntime` — ``k`` domain
  hosts on one virtual clock (the simulator's only runtime; ``k = 1`` is
  the paper's single master);
* :func:`~repro.cluster.launcher.launch_cluster` — ``k`` in-process
  :class:`~repro.cluster.master.ClusterMaster`s (``k = 1`` likewise the
  paper's single master) stepped by one coordinator thread, exchanging
  protocol-v4 ``MIGRATE_OFFER/ACCEPT/DECLINE`` frames over TCP through
  :class:`~repro.sharding.cluster.MigrationBroker`.

Both merge their per-domain outcomes into one
:class:`~repro.runtime.report.RunReport` whose ``migration`` section
(:class:`MigrationStats`) accounts every offer, and every migrated task's
guarantee, exactly once.
"""

from .migration import MigrationStats, can_guarantee

__all__ = [
    "MigrationStats",
    "can_guarantee",
]
