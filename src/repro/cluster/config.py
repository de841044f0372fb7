"""Configuration of the live cluster runtime.

A :class:`ClusterConfig` wraps an
:class:`~repro.experiments.config.ExperimentConfig` (workload, database,
machine size, scheduler cost model) with the knobs only a real deployment
has: the TCP endpoint, the wall-clock scale, heartbeat cadence, dispatch
safety margin, and optional failure injection.

**Time model.**  Everything the scheduler reasons about stays in the
paper's virtual cost units (one tuple-check = 1.0); the cluster maps them
onto wall-clock seconds with ``seconds_per_unit``.  The master derives the
current virtual time from ``time.monotonic()`` and workers pad their real
execution to the scaled actual cost, so a schedule that is feasible in
virtual time is feasible on the wall clock — up to network and interpreter
jitter, which the dispatch-time guarantee margin absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..experiments.config import ExperimentConfig
from ..workload.transactions import build_seeded_workload
from .failure import FailurePlan


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a master and its workers need to run one live experiment."""

    experiment: ExperimentConfig = field(
        default_factory=lambda: ExperimentConfig.quick(
            num_transactions=200, num_processors=4, runs=1, slack_factor=3.0
        )
    )
    scheduler_name: str = "rtsads"
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick an ephemeral port; launcher propagates it
    #: Wall seconds one virtual cost unit lasts (1 ms per tuple-check).
    seconds_per_unit: float = 0.001
    heartbeat_interval: float = 0.25
    #: Dead after ``interval * miss_factor`` of silence (2 intervals).
    heartbeat_miss_factor: float = 2.0
    #: Master selector-loop tick; bounds dispatch latency between phases.
    poll_interval: float = 0.02
    #: Wall-clock slop subtracted from deadlines at dispatch time; absorbs
    #: network latency, GC pauses, and OS scheduling jitter so a dispatched
    #: guarantee survives contact with the real machine.
    guarantee_margin_seconds: float = 0.05
    connect_timeout: float = 10.0
    startup_timeout: float = 30.0
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
        if self.seconds_per_unit <= 0:
            raise ValueError("seconds_per_unit must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_miss_factor < 1.0:
            raise ValueError("heartbeat_miss_factor must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.guarantee_margin_seconds < 0:
            raise ValueError("guarantee_margin_seconds must be non-negative")
        if self.max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive")
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
        return self.guarantee_margin_seconds / self.seconds_per_unit

    @property
    def heartbeat_timeout(self) -> float:
        return self.heartbeat_interval * self.heartbeat_miss_factor

    def units_to_seconds(self, units: float) -> float:
        return units * self.seconds_per_unit

    def seconds_to_units(self, seconds: float) -> float:
        return seconds / self.seconds_per_unit

    # ----- canonical scales ------------------------------------------------

    @classmethod
    def default(
        cls,
        workers: int = 4,
        tasks: int = 200,
        seed: int = 1,
        slack_factor: float = 3.0,
        **overrides,
    ) -> "ClusterConfig":
        """The CLI's scale: a few seconds of wall clock on localhost.

        The slack factor defaults to 3 (the generous end of the paper's
        [1, 3] range): live deadlines burn real milliseconds on message
        hops, so the tightest setting would measure socket latency, not
        scheduling.
        """
        experiment = ExperimentConfig.quick(
            num_transactions=tasks,
            num_processors=workers,
            base_seed=seed,
            slack_factor=slack_factor,
            runs=1,
        )
        return cls(experiment=experiment, **overrides)

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

    def with_telemetry(self, telemetry: bool = True) -> "ClusterConfig":
        """A copy with worker-side trace shipping switched on or off."""
        return replace(self, telemetry=telemetry)

    def with_failure(self, failure: Optional[FailurePlan]) -> "ClusterConfig":
        return replace(self, failure=failure)


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
