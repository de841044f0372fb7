"""Per-peer clock-offset estimation for merging distributed traces.

Workers stamp their trace events with their *own* monotonic clock
(``time.monotonic()`` is process-local: two processes' readings share no
epoch), so the master must learn, per worker, how to translate a worker
timestamp into its own clock before the events can merge into one
timeline.

The estimator uses the classic one-way minimum filter.  Every message a
worker sends carries its send time ``s`` on the worker clock; the master
records its receive time ``r`` on the master clock and forms the sample
``r - s = offset + latency``, where ``offset`` is the true (constant)
clock offset and ``latency >= 0`` is that message's one-way network +
queueing delay.  The *minimum* sample over a run is the offset plus the
smallest latency any message experienced — on localhost (and any
uncongested LAN) a bound tight to well under a millisecond, far below
the quantum granularity the traces measure.  Corrected master time for a
worker timestamp ``w`` is then simply ``w + offset_estimate``.

The estimate only improves (monotonically non-increasing), so events
corrected early in a run may carry slightly more latency bias than late
ones; :meth:`ClockOffsetEstimator.offset` is cheap enough to re-apply at
merge time, which is what the cluster master does — events are corrected
when they arrive, with the then-best estimate.
"""

from __future__ import annotations

from typing import Dict, Optional


class ClockOffsetEstimator:
    """Min-filter offset estimation from one-way timestamped messages.

    One instance per trace-merging process (the cluster master); peers are
    keyed by an integer id (the worker index).  Not thread-safe — the
    master's selector loop is single-threaded, and the estimator mirrors
    that.
    """

    def __init__(self) -> None:
        self._offsets: Dict[int, float] = {}
        self._samples: Dict[int, int] = {}

    def observe(
        self, peer: int, sent_mono: float, received_mono: float
    ) -> float:
        """Fold one ``(send, receive)`` timestamp pair into the estimate.

        Returns the updated offset estimate for ``peer``.  Samples with a
        zero/absent send stamp should be filtered by the caller; a sample
        can only tighten (never loosen) the estimate.
        """
        sample = received_mono - sent_mono
        current = self._offsets.get(peer)
        if current is None or sample < current:
            self._offsets[peer] = sample
        self._samples[peer] = self._samples.get(peer, 0) + 1
        return self._offsets[peer]

    def offset(self, peer: int) -> Optional[float]:
        """Best known offset for ``peer`` (None before any sample)."""
        return self._offsets.get(peer)

    def samples(self, peer: int) -> int:
        """How many timestamp pairs ``peer`` has contributed."""
        return self._samples.get(peer, 0)

    def correct(self, peer: int, peer_mono: float) -> Optional[float]:
        """Translate a ``peer`` clock reading onto the local clock.

        Returns ``None`` when no offset is known yet (the caller decides
        whether to drop, defer, or pass the event through uncorrected).
        """
        offset = self._offsets.get(peer)
        if offset is None:
            return None
        return peer_mono + offset
