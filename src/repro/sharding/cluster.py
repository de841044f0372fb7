"""Sharded live cluster: k domain masters, one coordinator, real frames.

:func:`launch_sharded_cluster` is the live counterpart of a multi-domain
:class:`~repro.simulator.runtime.DistributedRuntime`: the worker fleet is
partitioned into scheduling domains, each domain gets its own
:class:`DomainMaster` (a :class:`~repro.cluster.master.ClusterMaster`
restricted to its slice of the fleet, with its own TCP hub and its own
feasibility-search state), and workers are spawned against the hub of the
domain that owns them.  The coordinator round-robins every master's
:meth:`~repro.cluster.master.ClusterMaster.step` through one thread, so
the run needs no locks, and migration negotiations are naturally
serialized.

Inter-domain migration rides the v4 protocol frames: when a domain's
search leaves tasks unplaced after a phase, the coordinator sends a
``MIGRATE_OFFER`` — over a real TCP connection into the target master's
hub — to the least-loaded peer domain.  The target answers
``MIGRATE_ACCEPT`` (it admitted the task and now owns its record) or
``MIGRATE_DECLINE``; an unanswered offer times out at the origin and is
counted separately.  Offers are one-hop and the owning record moves with
the task, so every migrated task — and its guarantee, earned through the
target's normal dispatch re-check — is accounted exactly once in the
merged report.

The merged :class:`~repro.runtime.report.RunReport` keeps
``backend="cluster"`` (same wire physics, same schema); the partition and
the per-domain ports ride in ``extras`` and the migration counts in the
schema-stable ``migration`` section, exactly like the simulator's.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster import protocol
from ..cluster.config import ClusterConfig, build_cluster_workload
from ..cluster.launcher import reap_workers, spawn_worker
from ..cluster.master import (
    PENDING,
    ClusterMaster,
    LiveTaskRecord,
)
from ..cluster.network import MESSAGE, ConnectionLost, NetworkEvent, WorkerChannel
from ..core.domains import DomainAssignment, partition_workers
from ..core.task import Task
from ..observability import Instrumentation, get_instrumentation
from ..runtime.report import RunReport
from .migration import MigrationStats, can_guarantee

#: Wall-clock budget for one offer's round trip before it counts as a
#: timeout.  Generous against the in-process reality (the coordinator
#: pumps the target master while waiting), tight against a wedged peer.
OFFER_TIMEOUT_SECONDS = 2.0


class DomainMaster(ClusterMaster):
    """One scheduling domain's master: a slice of workers, its own hub.

    Differs from the fleet-wide master in exactly three ways: it installs
    only the tasks the router assigns to its domain, it waits for (and
    schedules over) only its own partition's workers, and it understands
    ``MIGRATE_OFFER`` frames — answering with an accept (record created,
    task admitted to its batch) or a decline (its quick guarantee check
    failed too).
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        domain_id: int,
        assignment: DomainAssignment,
        router: Callable[[Task], int],
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        # Set before super().__init__: the base constructor installs the
        # workload mid-construction and _install_workload needs the router.
        self.domain_id = domain_id
        self.assignment = assignment
        self.router = router
        self.domain_workers = assignment.workers_of(domain_id)
        #: Task ids that may not migrate (offered once, or migrated in).
        self._migration_barred: set = set()
        obs = instrumentation or get_instrumentation()
        if obs.enabled:
            obs = obs.bind(domain=domain_id)
        super().__init__(config, instrumentation=obs)

    # ----- domain restriction ----------------------------------------------

    @property
    def expected_workers(self) -> int:
        return len(self.domain_workers)

    def _install_workload(self, tasks: Sequence[Task]) -> None:
        local = [task for task in tasks if self.router(task) == self.domain_id]
        super()._install_workload(local)

    # ----- migration: the target side ---------------------------------------

    def _handle_event(self, event: NetworkEvent) -> None:
        if event.kind == MESSAGE and (
            event.message.get("type") == protocol.MIGRATE_OFFER
        ):
            self._on_migrate_offer(event.conn_id, event.message)
            return
        super()._handle_event(event)

    def _on_migrate_offer(self, conn_id: int, message: Dict) -> None:
        """Decide one offer: admit-and-accept, or decline.

        The quick check is the same arithmetic the simulator's peer
        domains use (:func:`~repro.sharding.migration.can_guarantee`), so
        sim and cluster accept the same offers under the same loads.  An
        accepted task is barred from re-migration (one-hop) and re-earns
        its guarantee through the normal dispatch-time re-check.
        """
        offer_id = int(message["offer_id"])
        task_id = int(message["task_id"])
        task = Task(
            task_id=task_id,
            processing_time=float(message["processing"]),
            arrival_time=float(message["arrival"]),
            deadline=float(message["deadline"]),
            affinity=frozenset(int(p) for p in message["affinity"]),
        )
        alive = self._alive_workers()
        loads = [self.workers[w].outstanding_units() for w in alive]
        acceptable = (
            task_id not in self.records
            and bool(alive)
            and can_guarantee(
                task,
                self.vnow(),
                loads,
                alive,
                self.config.experiment.remote_cost,
            )
        )
        if acceptable:
            self.records[task_id] = LiveTaskRecord(task=task)
            self._migration_barred.add(task_id)
            self.driver.admit([task])
            self.hub.send(
                conn_id,
                protocol.migrate_accept(offer_id, task_id, self.domain_id),
            )
            if self.obs.enabled:
                self.obs.metrics.counter("cluster_migrations_in").inc()
        else:
            self.hub.send(
                conn_id,
                protocol.migrate_decline(offer_id, task_id, self.domain_id),
            )

    # ----- migration: the origin side ---------------------------------------

    def migration_candidates(self) -> List[Task]:
        """Unbarred batch leftovers — what the local search failed to place.

        Returned with their *original* (global-id) affinities from the
        task records, never the remapped local-slot view the search saw.
        """
        now = self.vnow()
        candidates: List[Task] = []
        for stale in self.driver.batch.tasks():
            record = self.records.get(stale.task_id)
            if record is None or record.status != PENDING:
                continue
            if stale.task_id in self._migration_barred:
                continue
            task = record.task
            if task.is_expired(now):
                continue
            candidates.append(task)
        return sorted(candidates, key=lambda t: t.task_id)

    def bar_migration(self, task_id: int) -> None:
        """One-hop discipline: never offer this task again."""
        self._migration_barred.add(task_id)

    def release_migrated(self, task_id: int) -> bool:
        """Hand ownership to the accepting peer: drop batch entry + record."""
        removed = self.driver.withdraw([task_id])
        record = self.records.pop(task_id, None)
        if not removed or record is None:
            self.obs.logger.warning(
                "migrated task was not waiting here", task=task_id
            )
            return False
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_migrations_out").inc()
        return True

    def mean_load(self) -> float:
        """Mean outstanding work per alive worker (inf with none alive)."""
        alive = self._alive_workers()
        if not alive:
            return float("inf")
        total = sum(self.workers[w].outstanding_units() for w in alive)
        return total / len(alive)


def launch_sharded_cluster(
    config: ClusterConfig,
    instrumentation: Optional[Instrumentation] = None,
    router: Optional[Callable[[Task], int]] = None,
) -> RunReport:
    """Run one live experiment across ``experiment.domains`` domains.

    Binds one :class:`DomainMaster` per domain, spawns each worker against
    the hub of the domain that owns it, drives every master's step loop
    round-robin from this thread, negotiates migrations over real v4
    frames, and returns one merged report.  ``router`` overrides the
    partition's task routing (tests use it to force cross-domain
    migrations deterministically); the default routes by affinity
    plurality like the simulator.  Always reaps the workers.
    """
    obs = instrumentation or get_instrumentation()
    experiment = config.experiment
    _, tasks, _transactions = build_cluster_workload(
        experiment, experiment.base_seed
    )
    assignment = partition_workers(
        experiment.num_processors,
        experiment.domains,
        experiment.partition_policy,
        tasks=tasks,
    )
    route = router if router is not None else assignment.route
    stats = MigrationStats()
    masters = [
        DomainMaster(
            config,
            domain_id=d,
            assignment=assignment,
            router=route,
            instrumentation=obs,
        )
        for d in range(assignment.num_domains)
    ]
    worker_config = config
    if obs.enabled and not worker_config.telemetry:
        worker_config = worker_config.with_telemetry(True)
    workers = []
    peers: List[Optional[WorkerChannel]] = [None] * len(masters)
    wall_start = time.monotonic()
    try:
        for index in range(experiment.num_processors):
            domain = assignment.domain_of(index)
            workers.append(
                spawn_worker(
                    worker_config.with_port(masters[domain].port), index
                )
            )
        for master in masters:
            master._start_wall = wall_start
            master._await_workers()
        # One peer channel per master: the coordinator's path into each
        # hub for MIGRATE frames.  These connections never say HELLO, so
        # they are invisible to the worker registries.
        for d, master in enumerate(masters):
            peers[d] = WorkerChannel.connect(
                config.host, master.port, timeout=config.connect_timeout
            )
        # One shared virtual-time origin: loads, deadlines, and migration
        # decisions in every domain speak the same clock.
        t0 = time.monotonic()
        for master in masters:
            master._t0 = t0
        if obs.enabled:
            obs.emit(
                "run_start",
                workers=experiment.num_processors,
                tasks=sum(len(m.records) for m in masters),
                domains=assignment.num_domains,
                partition_policy=assignment.policy,
            )
            for master in masters:
                master._emit_arrivals()
        _drive(masters, peers, stats, obs, config)
        for master in masters:
            master.shutdown()
        return _merge(
            masters, assignment, stats, experiment, wall_start, obs
        )
    finally:
        for master in masters:
            try:
                master.shutdown()
            except OSError:
                pass
        for channel in peers:
            if channel is not None:
                channel.close()
        reap_workers(workers, obs)


def _drive(
    masters: List[DomainMaster],
    peers: List[Optional[WorkerChannel]],
    stats: MigrationStats,
    obs: Instrumentation,
    config: ClusterConfig,
) -> None:
    """Round-robin the domain step loops until every domain is done.

    A migration accepted this round can hand new work to a master that
    already reported finished, so the loop only exits on a full round
    with every master finished and no accepted handoff.
    """
    while True:
        migrated = False
        done = True
        for origin_d, master in enumerate(masters):
            finished = master.step()
            if len(masters) > 1:
                migrated |= _attempt_migrations(
                    origin_d, masters, peers, stats, obs, config
                )
            done = done and finished
        if done and not migrated:
            return


def _attempt_migrations(
    origin_d: int,
    masters: List[DomainMaster],
    peers: List[Optional[WorkerChannel]],
    stats: MigrationStats,
    obs: Instrumentation,
    config: ClusterConfig,
) -> bool:
    """Offer the origin's unplaceable leftovers to least-loaded peers.

    Returns True iff at least one offer was accepted.  Every candidate is
    barred before its offer goes out, so a task is offered at most once
    for the whole run regardless of the outcome.
    """
    origin = masters[origin_d]
    accepted_any = False
    for task in origin.migration_candidates():
        target_d = _pick_target(origin_d, masters)
        if target_d is None:
            break  # no peer has a live worker; nothing can take handoffs
        origin.bar_migration(task.task_id)
        offer_id = stats.offers  # origin-scoped, strictly increasing
        stats.record_offer(origin_d)
        now_v = origin.vnow()
        if obs.enabled:
            obs.emit(
                "task",
                transition="migration_offered",
                task_id=task.task_id,
                t=now_v,
                from_domain=origin_d,
                to_domain=target_d,
            )
        try:
            peers[target_d].send(
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
            reply = _await_reply(
                masters[target_d], peers[target_d], offer_id
            )
        except ConnectionLost:
            reply = None
        if reply is None:
            stats.record_timeout()
            if obs.enabled:
                obs.emit(
                    "task",
                    transition="migration_declined",
                    task_id=task.task_id,
                    t=origin.vnow(),
                    from_domain=origin_d,
                    to_domain=target_d,
                    reason="timeout",
                )
            continue
        if reply.get("type") == protocol.MIGRATE_ACCEPT:
            origin.release_migrated(task.task_id)
            stats.record_accept(target_d)
            accepted_any = True
            if obs.enabled:
                obs.emit(
                    "task",
                    transition="migrated",
                    task_id=task.task_id,
                    t=origin.vnow(),
                    from_domain=origin_d,
                    to_domain=target_d,
                )
        else:
            stats.record_decline()
            if obs.enabled:
                obs.emit(
                    "task",
                    transition="migration_declined",
                    task_id=task.task_id,
                    t=origin.vnow(),
                    from_domain=origin_d,
                    to_domain=target_d,
                    reason=str(reply.get("reason", "infeasible")),
                )
    return accepted_any


def _await_reply(
    target: DomainMaster,
    channel: WorkerChannel,
    offer_id: int,
) -> Optional[Dict]:
    """Pump the target master until it answers this offer (or timeout).

    The coordinator owns every master's step loop, so the target can only
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


def _pick_target(
    origin_d: int, masters: List[DomainMaster]
) -> Optional[int]:
    """Least mean-loaded peer domain with a live worker (ties: lowest id)."""
    best: Optional[int] = None
    best_load = float("inf")
    for d, master in enumerate(masters):
        if d == origin_d:
            continue
        load = master.mean_load()
        if load < best_load:
            best, best_load = d, load
    return best


def _merge(
    masters: List[DomainMaster],
    assignment: DomainAssignment,
    stats: MigrationStats,
    experiment,
    wall_start: float,
    obs: Instrumentation,
) -> RunReport:
    """One fleet-wide report from the per-domain ones.

    Counters sum (each task's record lives in exactly one domain — the
    target's after an accepted migration), makespan is the latest finish
    on the shared clock, and the phase list interleaves every domain's
    phases in start order like the simulator's merge.
    """
    reports = [master._build_report(emit=False) for master in masters]
    phases = sorted(
        (phase for report in reports for phase in report.phases),
        key=lambda p: (p.start, p.end, p.index),
    )
    makespan = max(report.makespan for report in reports)
    hits = sum(report.deadline_hits for report in reports)
    total_tasks = sum(report.total_tasks for report in reports)
    if obs.enabled:
        obs.emit(
            "run_end",
            workers=experiment.num_processors,
            tasks=total_tasks,
            deadline_hits=hits,
            phases=len(phases),
            makespan=float(makespan),
            domains=assignment.num_domains,
            migrations=stats.accepted,
            telemetry_dropped=sum(
                sum(master.telemetry_dropped.values())
                for master in masters
            ),
        )
    return RunReport(
        backend="cluster",
        scheduler_name=masters[0].scheduler.name,
        num_workers=experiment.num_processors,
        seed=experiment.base_seed,
        total_tasks=total_tasks,
        guaranteed=sum(r.guaranteed for r in reports),
        completed=sum(r.completed for r in reports),
        deadline_hits=hits,
        completed_late=sum(r.completed_late for r in reports),
        expired=sum(r.expired for r in reports),
        failed=0,
        guaranteed_violations=sum(
            r.guaranteed_violations for r in reports
        ),
        reschedules=sum(r.reschedules for r in reports),
        workers_lost=sum(r.workers_lost for r in reports),
        makespan=float(makespan),
        wall_seconds=time.monotonic() - wall_start,
        phases=phases,
        migration=stats.as_section(),
        extras={
            "ports": [master.port for master in masters],
            "partition": assignment.as_dict(),
        },
    )
