"""Process orchestration: k masters, N workers, clean teardown.

:func:`launch_cluster` is the single entry point callers use, and the one
coordinator of every live batch run: it builds the workload once,
partitions the fleet into ``experiment.domains`` scheduling domains (the
paper's machine is the one-domain partition, not a second code path),
binds one in-process :class:`~repro.cluster.master.ClusterMaster` per
domain, spawns one OS process per working processor against the hub of
the domain that owns it, walks the masters through their public lifecycle
(``await_workers`` / ``start_clock`` / ``step`` / ``shutdown`` /
``report``) from this one thread, and — in a ``finally`` no failure mode
skips — reaps every child: join with a deadline, then ``terminate()``,
then ``kill()``.  Tests assert the post-condition directly: no orphan
processes, and every master's port is immediately re-bindable.

``spawn`` (not ``fork``) is used deliberately: workers must rebuild their
state from the pickled :class:`~repro.cluster.config.ClusterConfig` alone,
which keeps them honest about determinism and matches how a multi-host
deployment would start them.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import replace
from typing import Callable, List, Optional

from ..core.domains import partition_workers
from ..core.task import Task
from ..observability import Instrumentation, get_instrumentation
from ..runtime.report import RunReport
from .config import ClusterConfig, build_cluster_workload
from .master import ClusterMaster, Domain, emit_run_end
from .worker import worker_main

#: Grace period for workers to exit after SHUTDOWN before escalation.
JOIN_GRACE_SECONDS = 5.0


def launch_cluster(
    config: ClusterConfig,
    instrumentation: Optional[Instrumentation] = None,
    router: Optional[Callable[[Task], int]] = None,
) -> RunReport:
    """Run one live experiment end to end; always reaps the workers.

    The masters (one per domain) are stepped round-robin from this
    thread, so the run needs no locks and a migration is a direct call
    between two of them.  ``router`` overrides the partition's task
    routing (tests use it to force cross-domain migrations
    deterministically); the default routes by affinity plurality like the
    simulator.  A router answer outside ``0..k-1`` raises ``ValueError``
    before anything is spawned.  Returns the one merged report.
    """
    # Imported lazily: the migration broker imports this package.
    from ..sharding.cluster import MigrationBroker, merge_reports

    obs = instrumentation or get_instrumentation()
    experiment = config.experiment
    database, tasks, _transactions = build_cluster_workload(
        experiment, experiment.base_seed
    )
    assignment = partition_workers(
        experiment.num_processors,
        experiment.domains,
        experiment.partition_policy,
        tasks=tasks,
    )
    route = router if router is not None else assignment.route
    routed: List[List[Task]] = [[] for _ in assignment.domains]
    for task in tasks:
        target = route(task)
        if not 0 <= target < len(routed):
            raise ValueError(
                f"router sent task {task.task_id} to unknown domain {target}"
            )
        routed[target].append(task)
    # The run's own trace headers speak as "the master", whatever k is.
    headers = obs.bind(component="master") if obs.enabled else obs
    masters: List[ClusterMaster] = []
    fleet = WorkerFleet(config, obs)
    broker = MigrationBroker(config, obs)
    try:
        for d, members in enumerate(assignment.domains):
            masters.append(
                ClusterMaster(
                    # A pinned port is domain 0's; its peers bind ephemeral
                    # ones (two listeners cannot share it).
                    config if d == 0 else config.with_port(0),
                    Domain(
                        database=database,
                        tasks=routed[d],
                        workers=members,
                        domain_id=d,
                        has_peers=assignment.sharded,
                    ),
                    instrumentation=obs,
                )
            )
        for index in range(experiment.num_processors):
            fleet.spawn(index, masters[assignment.domain_of(index)].port)
        for master in masters:
            master.await_workers()
        # One shared virtual-time origin for every domain.
        t0 = time.monotonic()
        if headers.enabled:
            # A lone master's headers carry no domain fields (cf. Domain).
            headers.emit(
                "run_start",
                workers=experiment.num_processors,
                tasks=len(tasks),
                **assignment.header_fields(partition_policy=assignment.policy),
            )
        for master in masters:
            master.start_clock(t0)
        broker.drive(masters)
        for master in masters:
            master.shutdown()
        report = merge_reports(masters, assignment, broker.stats)
        emit_run_end(
            headers,
            report,
            masters,
            **assignment.header_fields(migrations=broker.stats.accepted),
        )
        return report
    finally:
        # The success path has already shut down; this only frees the
        # listeners (close never raises), so the reap below always runs.
        for master in masters:
            master.close()
        fleet.reap()


class WorkerFleet:
    """Every worker process of one live run: spawned here, reaped here.

    Shared by the batch launcher and the service runtime.  Thread-safe:
    the service's elastic joins spawn from timer threads while the main
    thread may already be reaping, and a spawn that loses that race is
    refused rather than leaked.
    """

    def __init__(self, config: ClusterConfig, obs: Instrumentation) -> None:
        if obs.enabled and not config.telemetry:
            # The master is traced, so the workers should be too: spawned
            # processes can't inherit the sink object, but the config flag
            # makes them self-instrument and ship events back over the wire.
            config = replace(config, telemetry=True)
        self._config = config
        self._obs = obs
        self._processes: List[multiprocessing.Process] = []
        self._lock = threading.Lock()
        self._reaped = False

    def spawn(self, index: int, port: int) -> bool:
        """Start worker ``index`` against the master bound on ``port`` (the
        real one, even when the config asked for an ephemeral port).
        Returns False, starting nothing, once the fleet has been reaped."""
        with self._lock:
            if self._reaped:
                return False
            self._processes.append(
                spawn_worker(self._config.with_port(port), index)
            )
            return True

    def reap(self) -> None:
        """Join, then escalate, every worker; later spawns are refused."""
        with self._lock:
            self._reaped = True
            reap_workers(self._processes, self._obs)
            self._processes = []


def spawn_worker(
    config: ClusterConfig, index: int
) -> multiprocessing.Process:
    """Start one worker process against an already-bound master.

    Used for the initial fleet and for the service runtime's elastic
    mid-run joins (any non-negative ``index``, including ones beyond the
    data placement).  The caller owns the returned process and must
    eventually :func:`reap_workers` it.
    """
    context = multiprocessing.get_context("spawn")
    process = context.Process(
        target=worker_main,
        args=(config, index),
        name=f"repro-worker-{index}",
        daemon=True,
    )
    process.start()
    return process


def reap_workers(
    workers: List[multiprocessing.Process], obs: Instrumentation
) -> None:
    """Join, then escalate: no code path may leak a worker process."""
    for process in workers:
        process.join(timeout=JOIN_GRACE_SECONDS)
    for process in workers:
        if process.is_alive():
            obs.logger.warning(
                "worker did not exit; terminating", worker=process.name
            )
            process.terminate()
            process.join(timeout=2.0)
    for process in workers:
        if process.is_alive():
            obs.logger.warning(
                "worker survived terminate; killing", worker=process.name
            )
            process.kill()
            process.join(timeout=2.0)
    for process in workers:
        process.close()
