"""Observability: metrics registry, structured logging, spans, trace sinks.

The instrumentation layer the simulator, scheduler, database, and experiment
harness hook into.  Off by default and near-free when disabled: the
process-wide default is :data:`NULL_INSTRUMENTATION`, hot paths guard on
``obs.enabled``, and nothing in this package imports beyond the stdlib.

Typical opt-in (what ``python -m repro.experiments --verbose --trace-out``
does under the hood)::

    from repro.observability import (
        Instrumentation, JsonlSink, StructuredLogger, instrumented,
    )

    obs = Instrumentation(
        logger=StructuredLogger(level="info"),
        sink=JsonlSink("trace.jsonl"),
    )
    with instrumented(obs):
        result = simulate(scheduler, tasks, num_workers=8)
    print(obs.metrics.snapshot())

See :mod:`repro.observability.sinks` for the JSONL event schema.
"""

from .clockskew import ClockOffsetEstimator
from .instrument import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    get_instrumentation,
    instrumented,
    set_instrumentation,
)
from .log import DEBUG, ERROR, INFO, OFF, WARNING, StructuredLogger, parse_level
from .metrics import (
    HISTOGRAM_SAMPLE_CAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_key,
)
from .sinks import NULL_SINK, JsonlSink, MemorySink, TraceSink, read_jsonl
from .tracing import NULL_SPAN, NullSpan, Span

#: Names re-exported from :mod:`.analyze`, which is imported on first use:
#: it brings the schedulability oracle with it, and a simulator run reads
#: neither.
_ANALYZE = (
    "CAUSES",
    "AttributionReport",
    "MissAttribution",
    "TraceDiff",
    "attribute_misses",
    "diff_traces",
    "render_attribution",
    "render_diff",
    "render_timeline",
    "trace_oracle",
)


def __getattr__(name: str):
    """Import :mod:`.analyze` the first time one of its names is asked for."""
    if name in _ANALYZE:
        from . import analyze

        return getattr(analyze, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AttributionReport",
    "CAUSES",
    "ClockOffsetEstimator",
    "DEBUG",
    "ERROR",
    "HISTOGRAM_SAMPLE_CAP",
    "INFO",
    "Counter",
    "MissAttribution",
    "TraceDiff",
    "attribute_misses",
    "diff_traces",
    "render_attribution",
    "render_diff",
    "render_timeline",
    "trace_oracle",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NULL_SINK",
    "NULL_SPAN",
    "NullSpan",
    "OFF",
    "Span",
    "StructuredLogger",
    "TraceSink",
    "WARNING",
    "format_key",
    "get_instrumentation",
    "instrumented",
    "parse_level",
    "read_jsonl",
    "set_instrumentation",
]
