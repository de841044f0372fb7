"""Configuration of the live cluster runtime.

A :class:`ClusterConfig` wraps an
:class:`~repro.experiments.config.ExperimentConfig` (workload, database,
machine size, scheduler cost model) with the knobs only a real deployment
has: the TCP endpoint, the wall-clock scale, heartbeat cadence, the hard
wall-clock ceiling, and optional failure injection.  Timing values no
deployment has ever varied are the module constants below.

**Time model.**  Everything the scheduler reasons about stays in the
paper's virtual cost units (one tuple-check = 1.0); the cluster maps them
onto wall-clock seconds with ``seconds_per_unit``.  The master derives the
current virtual time from ``time.monotonic()`` and workers pad their real
execution to the scaled actual cost, so a schedule that is feasible in
virtual time is feasible on the wall clock — up to network and interpreter
jitter, which the dispatch-time guarantee margin absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..experiments.config import ExperimentConfig
from ..workload.transactions import build_seeded_workload
from .failure import FailurePlan

#: Selector-loop tick of master and workers, in wall seconds; bounds
#: dispatch latency between phases.
POLL_INTERVAL = 0.02
#: Wall-clock slop subtracted from deadlines at dispatch time; absorbs
#: network latency, GC pauses, and OS scheduling jitter so a dispatched
#: guarantee survives contact with the real machine.
GUARANTEE_MARGIN_SECONDS = 0.05
#: Wall seconds the fleet may take to register (and a worker to be
#: welcomed) before the run is declared failed to start.
STARTUP_TIMEOUT = 30.0


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a master and its workers need to run one live experiment."""

    experiment: ExperimentConfig
    scheduler_name: str = "rtsads"
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick an ephemeral port; launcher propagates it
    #: Wall seconds one virtual cost unit lasts (1 ms per tuple-check).
    seconds_per_unit: float = 0.001
    #: A worker is declared dead after
    #: :attr:`~repro.cluster.failure.HeartbeatMonitor.MISS_FACTOR` intervals
    #: of silence.
    heartbeat_interval: float = 0.25
    #: Hard abort: a run exceeding this is declared hung, shut down, and
    #: reported as an error (the per-test hard timeout of the smoke suite).
    max_wall_seconds: float = 120.0
    failure: Optional[FailurePlan] = None
    #: Worker-side tracing: when on, every worker buffers execution events
    #: and ships them to the master in batched TELEMETRY frames, where they
    #: merge (skew-corrected) into the run's single trace sink.  Off by
    #: default so an uninstrumented run sends nothing extra on the wire.
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.seconds_per_unit < math.inf:
            raise ValueError("seconds_per_unit must be positive and finite")
        if not 0 < self.heartbeat_interval < math.inf:
            raise ValueError("heartbeat_interval must be positive and finite")
        if not 0 < self.max_wall_seconds < math.inf:
            raise ValueError("max_wall_seconds must be positive and finite")
        if self.failure is not None and (
            self.failure.worker_index >= self.num_workers
        ):
            raise ValueError(
                f"failure targets worker {self.failure.worker_index} but the "
                f"cluster has {self.num_workers} workers"
            )

    # ----- derived views ---------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Working processors = worker processes (the host is the master)."""
        return self.experiment.num_processors

    @property
    def guarantee_margin_units(self) -> float:
        return GUARANTEE_MARGIN_SECONDS / self.seconds_per_unit

    def units_to_seconds(self, units: float) -> float:
        return units * self.seconds_per_unit

    # ----- canonical scales ------------------------------------------------

    @classmethod
    def smoke(
        cls,
        workers: int = 2,
        tasks: int = 24,
        seed: int = 7,
        **overrides,
    ) -> "ClusterConfig":
        """CI scale: tiny workload, generous deadlines, tight hard timeout."""
        experiment = ExperimentConfig.quick(
            num_transactions=tasks,
            num_processors=workers,
            base_seed=seed,
            slack_factor=3.0,
            runs=1,
        )
        defaults = dict(
            experiment=experiment,
            heartbeat_interval=0.15,
            max_wall_seconds=60.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_port(self, port: int) -> "ClusterConfig":
        return replace(self, port=port)


def build_cluster_workload(experiment: ExperimentConfig, seed: int):
    """Database, scheduler tasks, and raw transactions for one live run.

    Master and every worker call this with the same seed and rebuild
    byte-identical state independently — shipping a few kilobytes of config
    through process arguments instead of megabytes of tables over TCP.
    The body is the one the simulator path uses
    (:func:`~repro.workload.transactions.build_seeded_workload`), so live
    and simulated runs of one config see the same workload.
    """
    return build_seeded_workload(experiment, seed)
