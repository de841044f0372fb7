"""Worker-side telemetry buffering for the cluster trace pipeline.

A worker process cannot write into the master's trace file, and sending
one TCP frame per trace event would perturb the very data path the trace
is meant to measure.  Instead the worker's instrumentation emits into a
:class:`TelemetryBuffer` — a bounded in-memory
:class:`~repro.observability.sinks.TraceSink` that stamps every event
with the worker's monotonic clock (``w_mono``) — and the worker drains
it in batched ``TELEMETRY`` frames only on quantum boundaries: after a
task execution completes, alongside heartbeats, and at shutdown.  The
master re-stamps each event onto its own timeline via the
clock-offset estimator and writes it into the run's single JSONL sink.

The buffer is bounded (oldest events drop first, with a drop counter
carried in the next flush) so a worker that outpaces its flush points can
never grow without limit; in practice the flush cadence keeps the buffer
tiny.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List

from ..observability.sinks import TraceSink


class TelemetryBuffer(TraceSink):
    """Bounded event buffer stamped with the worker's monotonic clock."""

    #: Events retained before the oldest are dropped (flush cadence keeps
    #: the live buffer far below this; the cap only matters for a wedged
    #: socket).
    CAP = 4096

    def __init__(self) -> None:
        self._events: Deque[Dict[str, object]] = deque()
        self.events_buffered = 0
        self.events_dropped = 0

    def emit(self, event: Dict[str, object]) -> None:
        """Buffer one event, stamping ``w_mono`` if the emitter did not."""
        if "w_mono" not in event:
            event = dict(event)
            event["w_mono"] = time.monotonic()
        self._events.append(event)
        self.events_buffered += 1
        if len(self._events) > self.CAP:
            self._events.popleft()
            self.events_dropped += 1

    def drain(self, max_events: int) -> List[Dict[str, object]]:
        """Remove and return up to ``max_events`` oldest buffered events.

        The first drain after any drop prepends one ``telemetry_dropped``
        marker event so the merged trace records the loss instead of
        silently thinning.  The marker is bookkeeping, not payload: it
        rides on top of ``max_events`` rather than displacing a real
        event (otherwise every drop would also silently shrink the batch
        that reports it).
        """
        batch: List[Dict[str, object]] = []
        limit = max_events
        if self.events_dropped:
            batch.append(
                {
                    "event": "telemetry_dropped",
                    "dropped": self.events_dropped,
                    "w_mono": time.monotonic(),
                }
            )
            self.events_dropped = 0
            limit += 1
        while self._events and len(batch) < limit:
            batch.append(self._events.popleft())
        return batch

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events) or self.events_dropped > 0
