"""Configuration of the streaming service mode.

A :class:`ServiceConfig` wraps a
:class:`~repro.cluster.config.ClusterConfig` (whose embedded experiment
defines the *template universe* — the deterministically rebuilt
transactions clients may submit — and the initial worker fleet) with the
knobs only a long-lived service has: the admission policy, the backlog
bound, how the run ends (signal, duration, or going idle), and how long a
drain may take.

A :class:`JoinPlan` schedules one elastic worker join mid-run, mirroring
:class:`~repro.cluster.failure.FailurePlan` on the leave side; together
they script the membership churn a service-smoke run exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster.config import ClusterConfig
from .admission import ADMISSION_POLICY_NAMES


@dataclass(frozen=True)
class JoinPlan:
    """Start one extra worker ``after_seconds`` into the service run.

    ``worker_index`` may lie beyond the initial fleet (the joiner then
    holds no data residency and adds pure compute capacity) or reuse the
    index of a failed worker (a restart).
    """

    worker_index: int
    after_seconds: float

    def __post_init__(self) -> None:
        if self.worker_index < 0:
            raise ValueError("worker_index must be non-negative")
        if not 0 <= self.after_seconds < math.inf:
            raise ValueError("after_seconds must be non-negative and finite")

    @classmethod
    def parse(cls, spec: str) -> "JoinPlan":
        """Parse the CLI form ``INDEX@SECONDS`` (e.g. ``3@2.5``)."""
        try:
            index_text, seconds_text = spec.split("@", 1)
            index = int(index_text)
            seconds = float(seconds_text)
        except ValueError:
            raise ValueError(
                f"join spec {spec!r} is not INDEX@SECONDS"
            ) from None
        return cls(worker_index=index, after_seconds=seconds)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one long-lived scheduler service run needs."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig.smoke)
    #: Key of :data:`~repro.service.admission.ADMISSION_POLICY_NAMES`.
    admission_policy: str = "reject-newest"
    #: Backlog bound in virtual cost units for the capped policies; 0
    #: derives it as ``workers * mean template relative deadline`` — the
    #: work the fleet can clear within one typical deadline horizon.
    max_backlog_units: float = 0.0
    #: Wall seconds a drain may spend letting in-flight work finish before
    #: the remainder is surrendered.
    drain_grace_seconds: float = 5.0
    #: Wall-clock duration cap counted from readiness; 0 = unlimited (the
    #: run then ends on request_stop/SIGTERM or by going idle).
    max_service_seconds: float = 0.0
    #: Stop once at least one client was served and none remain connected,
    #: with no backlog and nothing in flight.  What the in-process load
    #: harness and CI smoke rely on; a real deployment would switch it off.
    stop_when_idle: bool = True

    def __post_init__(self) -> None:
        if self.admission_policy not in ADMISSION_POLICY_NAMES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICY_NAMES}, "
                f"got {self.admission_policy!r}"
            )
        if not 0 <= self.max_backlog_units < math.inf:
            raise ValueError("max_backlog_units must be non-negative and finite")
        if not 0 < self.drain_grace_seconds < math.inf:
            raise ValueError("drain_grace_seconds must be positive and finite")
        if not 0 <= self.max_service_seconds < math.inf:
            raise ValueError(
                "max_service_seconds must be non-negative and finite"
            )
