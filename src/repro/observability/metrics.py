"""Zero-dependency metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` hands out named instruments, optionally
distinguished by labels (``registry.counter("phases", scheduler="rtsads")``).
Instruments are cached, so repeated lookups in a hot loop return the same
object; call sites that care about the lookup cost should hold the instrument
directly.  ``snapshot()`` renders everything into plain dicts (JSON-ready)
and ``reset()`` zeroes values in place, keeping previously handed-out
instrument references live.

Everything here is synchronous and unlocked: the simulator is single
threaded, and the registry mirrors that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Histograms keep exact count/total/min/max forever but cap the stored
#: sample list, so a million observations cannot balloon memory.  The first
#: ``HISTOGRAM_SAMPLE_CAP`` observations are kept verbatim for quantiles.
HISTOGRAM_SAMPLE_CAP = 1024

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    if not name:
        raise ValueError("metric name must be non-empty")
    if "name" in labels:
        # Would collide with the registry methods' positional parameter at
        # every call site; insist on a more specific label key up front.
        raise ValueError("'name' is reserved; use a more specific label key")
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(key: MetricKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (no braces unlabeled)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("key", "value")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A value that can move both ways (queue depth, clock position...)."""

    __slots__ = ("key", "value")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Distribution summary: exact count/total/min/max plus a capped sample.

    Quantiles are computed from the first :data:`HISTOGRAM_SAMPLE_CAP`
    observations — deterministic (no reservoir randomness) and accurate for
    the phase-granular series this layer records.
    """

    __slots__ = ("key", "count", "total", "min", "max", "_samples")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < HISTOGRAM_SAMPLE_CAP:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the stored sample (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._samples.clear()

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class MetricsRegistry:
    """Factory and store for every instrument of one instrumentation scope."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(key)
        return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: ``{"counters": {...}, "gauges": {...}, ...}``."""
        return {
            "counters": {
                format_key(k): c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {
                format_key(k): g.value for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                format_key(k): h.summary()
                for k, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument in place (handed-out references stay live)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
