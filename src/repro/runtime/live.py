"""The live cluster backend: real processes, real sockets, wall clock.

Wraps :func:`repro.cluster.launcher.launch_cluster` behind the
:class:`~repro.runtime.backend.ExecutionBackend` interface so any
experiment cell can run on the live system: the backend rebuilds a
:class:`~repro.cluster.config.ClusterConfig` around the experiment config
with the repetition's seed as the workload seed, spawns the master and
one worker process per configured processor, and returns the master's
:class:`~repro.runtime.report.RunReport`.

Deployment knobs that have no simulated counterpart describe *where* the
run happens, not *what* runs, so they stay out of ``ExperimentConfig``:
the backend holds them as one mapping of ``ClusterConfig`` overrides.
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

    def __init__(self, **cluster_overrides) -> None:
        #: ``ClusterConfig`` fields replaced on every run's config: the
        #: CLI's live knobs (``cli.LIVE_KNOB_FLAGS``: ``failure``,
        #: ``seconds_per_unit``, ``heartbeat_interval``).  ``ClusterConfig``
        #: itself rejects a name it does not have when the run starts.
        self.cluster_overrides = cluster_overrides

    def cluster_config(self, config, scheduler_name: str, seed: int):
        """The ``ClusterConfig`` one repetition deploys.

        Its ``experiment`` is ``config`` at this backend, one run, seeded
        with the repetition's seed.
        """
        # Sockets and multiprocessing stay out of simulation-only
        # processes; also breaks the cluster -> experiments -> backend
        # import cycle.
        from ..cluster.config import ClusterConfig

        return ClusterConfig(
            experiment=replace(
                config, base_seed=seed, runs=1, backend=self.name
            ),
            scheduler_name=scheduler_name,
            **self.cluster_overrides,
        )

    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
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
        # validate_phases is subsumed: the live master re-validates every
        # entry at dispatch time against a fresh wall-clock reading, which
        # is strictly stronger than the simulator's phase-end check.
        cluster_config = self.cluster_config(config, scheduler_name, seed)
        from ..cluster.launcher import launch_cluster

        return launch_cluster(
            cluster_config, instrumentation=instrumentation
        )


register_backend(ClusterBackend.name, ClusterBackend)
