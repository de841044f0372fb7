"""The live cluster backend: real processes, real sockets, wall clock.

Wraps :func:`repro.cluster.launcher.launch_cluster` behind the
:class:`~repro.runtime.backend.ExecutionBackend` interface so any
experiment cell can run on the live system: the backend rebuilds a
:class:`~repro.cluster.config.ClusterConfig` around the experiment config
with the repetition's seed as the workload seed, spawns the master and
one worker process per configured processor, and returns the master's
:class:`~repro.runtime.report.RunReport`.

Deployment knobs that have no simulated counterpart (wall-clock scale,
heartbeat cadence, failure injection) are constructor arguments — they
describe *where* the run happens, not *what* runs, so they stay out of
``ExperimentConfig``.
"""

from __future__ import annotations

from dataclasses import replace

from .backend import ExecutionBackend, register_backend
from .report import RunReport


class ClusterBackend(ExecutionBackend):
    """Runs a cell on the live TCP master/worker system.

    Stateless between runs (every :meth:`run_once` launches a fresh
    master + workers), so one instance may be reused across cells; it is
    not safe to call :meth:`run_once` concurrently from two threads with
    a pinned port, because both masters would bind the same listener.
    The report's ``wall_seconds`` is real host time; all schedule
    quantities stay in virtual quanta.
    """

    name = "cluster"
    live = True
    #: The master mirrors the simulator's generator, same seed.
    seeded_workload = True

    def __init__(
        self,
        *,
        host: str = None,
        port: int = None,
        seconds_per_unit: float = None,
        heartbeat_interval: float = None,
        guarantee_margin_seconds: float = None,
        max_wall_seconds: float = None,
        failure=None,
    ) -> None:
        overrides = {
            "host": host,
            "port": port,
            "seconds_per_unit": seconds_per_unit,
            "heartbeat_interval": heartbeat_interval,
            "guarantee_margin_seconds": guarantee_margin_seconds,
            "max_wall_seconds": max_wall_seconds,
            "failure": failure,
        }
        self._overrides = {
            key: value for key, value in overrides.items()
            if value is not None
        }

    def with_port(self, port: int) -> "ClusterBackend":
        """A copy whose master binds ``port`` (0 = OS-chosen ephemeral).

        The sweep engine uses this to pin consecutive live-cluster cells
        onto leased ports from a bounded pool; all other deployment
        overrides carry over unchanged.
        """
        clone = ClusterBackend()
        clone._overrides = {**self._overrides, "port": port}
        return clone

    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
        evaluator=None,
        quantum_policy=None,
        validate_phases: bool = False,
        instrumentation=None,
    ) -> RunReport:
        """Run one repetition on real processes over localhost TCP.

        Spawns a master and one worker per configured processor, waits for
        the run to finish, and returns the master's report: schedule
        quantities in virtual quanta, ``wall_seconds`` in real time.
        Blocking, and not concurrency-safe with a pinned port (two
        masters would race for the listener) — the sweep engine
        serializes cluster cells for exactly this reason.
        """
        if evaluator is not None or quantum_policy is not None:
            raise NotImplementedError(
                "scheduler construction overrides (evaluator, "
                "quantum_policy) are simulator-only; the live master "
                "builds its scheduler from the registry name"
            )
        # validate_phases is subsumed: the live master re-validates every
        # entry at dispatch time against a fresh wall-clock reading, which
        # is strictly stronger than the simulator's phase-end check.

        # Sockets and multiprocessing stay out of simulation-only
        # processes; also breaks the cluster -> experiments -> backend
        # import cycle.
        from ..cluster.config import ClusterConfig
        from ..cluster.launcher import launch_cluster

        experiment = replace(
            config, base_seed=seed, runs=1, backend=self.name
        )
        cluster_config = ClusterConfig(
            experiment=experiment,
            scheduler_name=scheduler_name,
            **self._overrides,
        )
        return launch_cluster(
            cluster_config, instrumentation=instrumentation
        )


register_backend(ClusterBackend.name, ClusterBackend)
