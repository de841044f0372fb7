"""Failure injection and detection for the live cluster.

The live analogue of the simulator's fail-stop crash study
(:func:`repro.experiments.extensions.extension_failures`): a
:class:`FailurePlan` makes one worker process die abruptly mid-run
(``os._exit``, no goodbye message), and the master's
:class:`HeartbeatMonitor` detects the silence within two heartbeat
intervals, after which the master reschedules the dead worker's
surrendered queue on the survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

#: Exit code a deliberately killed worker dies with, so launcher teardown
#: can tell an injected crash from a genuine worker bug.
FAILURE_EXIT_CODE = 17


@dataclass(frozen=True)
class FailurePlan:
    """Kill ``worker_index`` ``after_seconds`` after that worker starts."""

    worker_index: int
    after_seconds: float

    def __post_init__(self) -> None:
        if self.worker_index < 0:
            raise ValueError("worker_index must be non-negative")
        if not 0 <= self.after_seconds < math.inf:
            raise ValueError("after_seconds must be non-negative and finite")

    @classmethod
    def parse(cls, spec: str) -> "FailurePlan":
        """Parse the CLI flag format ``INDEX@SECONDS`` (e.g. ``1@0.5``)."""
        index_part, separator, seconds_part = spec.partition("@")
        if not separator:
            raise ValueError(
                f"failure spec {spec!r} must look like INDEX@SECONDS"
            )
        try:
            index = int(index_part)
            seconds = float(seconds_part)
        except ValueError:
            raise ValueError(
                f"failure spec {spec!r} must look like INDEX@SECONDS"
            ) from None
        return cls(worker_index=index, after_seconds=seconds)

    def applies_to(self, worker_index: int) -> bool:
        return worker_index == self.worker_index

    def due(self, worker_index: int, elapsed_seconds: float) -> bool:
        """Whether this worker should die now, ``elapsed`` into its life."""
        return (
            self.applies_to(worker_index)
            and elapsed_seconds >= self.after_seconds
        )


class HeartbeatMonitor:
    """Tracks worker liveness from message arrival times.

    A worker is declared dead when nothing has been heard from it for
    ``interval * MISS_FACTOR`` seconds (the acceptance criterion:
    detection within two heartbeat intervals).  Any message counts as a
    beat — a completion report is as alive as a heartbeat.
    """

    #: Heartbeat intervals of silence after which a worker is dead.
    MISS_FACTOR = 2.0

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.interval = interval
        self._last_seen: Dict[int, float] = {}

    @property
    def timeout(self) -> float:
        """Silence longer than this declares a worker dead."""
        return self.interval * self.MISS_FACTOR

    def register(self, worker_id: int, now: float) -> None:
        """Start watching a worker (its registration counts as a beat)."""
        self._last_seen[worker_id] = now

    def beat(self, worker_id: int, now: float) -> None:
        """Record a sign of life; unknown workers are ignored."""
        if worker_id in self._last_seen:
            self._last_seen[worker_id] = now

    def forget(self, worker_id: int) -> None:
        """Stop watching a worker (it was declared dead or shut down)."""
        self._last_seen.pop(worker_id, None)

    def expired(self, now: float) -> List[int]:
        """Workers silent past the timeout; each is reported exactly once."""
        dead = [
            worker_id
            for worker_id, seen in self._last_seen.items()
            if now - seen > self.timeout
        ]
        for worker_id in dead:
            del self._last_seen[worker_id]
        return dead
