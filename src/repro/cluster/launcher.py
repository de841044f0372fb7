"""Process orchestration: one master, N workers, clean teardown.

:func:`launch_cluster` is the single entry point callers use: it binds the
master (in-process), spawns one OS process per working processor, runs the
scheduling loop to completion, and — in a ``finally`` no failure mode
skips — reaps every child: join with a deadline, then ``terminate()``,
then ``kill()``.  Tests assert the post-condition directly: no orphan
processes, and the master's port is immediately re-bindable.

``spawn`` (not ``fork``) is used deliberately: workers must rebuild their
state from the pickled :class:`~repro.cluster.config.ClusterConfig` alone,
which keeps them honest about determinism and matches how a multi-host
deployment would start them.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from ..observability import Instrumentation, get_instrumentation
from ..runtime.report import RunReport
from .config import ClusterConfig
from .master import ClusterMaster
from .worker import worker_main

#: Grace period for workers to exit after SHUTDOWN before escalation.
JOIN_GRACE_SECONDS = 5.0


def launch_cluster(
    config: ClusterConfig,
    instrumentation: Optional[Instrumentation] = None,
) -> RunReport:
    """Run one live experiment end to end; always reaps the workers.

    A multi-domain experiment (``experiment.domains > 1``) is the sharded
    coordinator's job: one master per domain, workers spawned against
    their domain's hub, migrations negotiated over v4 frames.
    """
    obs = instrumentation or get_instrumentation()
    if config.experiment.domains > 1:
        # Imported lazily: the sharding coordinator imports this module
        # for spawn_worker/reap_workers.
        from ..sharding.cluster import launch_sharded_cluster

        return launch_sharded_cluster(config, instrumentation=obs)
    master = ClusterMaster(config, instrumentation=obs)
    # The master bound its listener in the constructor; give workers the
    # real port (the config may have asked for an ephemeral one).
    worker_config = config.with_port(master.port)
    if obs.enabled and not worker_config.telemetry:
        # The master is traced, so the workers should be too: spawned
        # processes can't inherit the sink object, but the config flag
        # makes them self-instrument and ship events back over the wire.
        worker_config = worker_config.with_telemetry(True)
    workers: List[multiprocessing.Process] = []
    try:
        for index in range(config.num_workers):
            workers.append(spawn_worker(worker_config, index))
        report = master.run()
    finally:
        master.close()
        reap_workers(workers, obs)
    return report


def spawn_worker(
    config: ClusterConfig, index: int
) -> multiprocessing.Process:
    """Start one worker process against an already-bound master.

    Used by :func:`launch_cluster` for the initial fleet and by the
    service runtime for elastic mid-run joins (any non-negative ``index``,
    including ones beyond the data placement).  The caller owns the
    returned process and must eventually :func:`reap_workers` it.
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
