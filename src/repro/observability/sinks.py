"""Trace sinks: where structured events go.

Every event is one flat-ish JSON object with an ``event`` kind field; the
JSONL sink writes one object per line.  The kinds the instrumented layers
emit (see EXPERIMENTS.md appendix for one full example of each):

``run_start``
    A simulation run begins: ``scheduler``, ``workers``, ``tasks``.
``run_end``
    A run finished: ``scheduler``, ``makespan``, ``deadline_hits``,
    ``tasks``, ``phases``, ``events_dispatched``.
``span``
    A timed section closed: ``name``, ``wall_s`` plus arbitrary
    attributes.  The per-phase span (``name="phase"``) carries the search
    internals: ``scheduler``, ``phase``, ``quantum``, ``time_used``,
    ``batch_size``, ``scheduled``, ``vertices_generated``, ``expansions``,
    ``backtracks``, ``feasibility_rejections``, ``prefilter_rejected``,
    ``tasks_pruned``, ``dead_end``, ``complete``, ``max_depth``.
``task``
    One task lifecycle transition, written by the run's task ledger:
    ``task_id``, ``transition`` (one of
    :data:`repro.runtime.ledger.TRANSITIONS`), virtual time ``t``, and
    ``processor`` where known.
``lock_wait``
    A lock request queued instead of being granted: ``resource``,
    ``owner``, ``mode``.
``cell``
    One experiment cell completed: scheduler, config axes, aggregate
    metrics, and the cell's counter deltas.

Sinks are deliberately dumb — no buffering policy beyond the file object's
own, no threading — because the simulator is single threaded and a trace
that lies about ordering is worse than none.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, List, Optional, TextIO


class TraceSink:
    """Base sink: swallows everything (the off-by-default behaviour)."""

    def emit(self, event: Dict[str, object]) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


#: Shared no-op sink; safe because it carries no state.
NULL_SINK = TraceSink()


class MemorySink(TraceSink):
    """Keeps events in a list — the test and debugging sink."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def emit(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e.get("event") == kind]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(TraceSink):
    """Writes one JSON object per line to a path or an open text stream.

    Crash-safe by policy: every emit flushes the line to the OS, so a
    process killed mid-run (a fail-stop worker, an interrupted sweep)
    leaves a fully parseable trace of everything up to the kill — the
    worst case is one torn final line, which :func:`read_jsonl` reports
    rather than silently truncating.  Trace events are rare relative to
    scheduling work (quantum granularity, not instruction granularity),
    so the per-line flush is noise next to the JSON encode itself.
    ``close`` is idempotent and safe to call from ``finally`` blocks that
    may run twice.
    """

    def __init__(self, target: "str | Path | TextIO") -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file: TextIO = path.open("w", encoding="utf-8")
            self._owns_file = True
            self.path: Optional[Path] = path
        else:
            self._file = target
            self._owns_file = False
            self.path = None
        self.events_written = 0

    def emit(self, event: Dict[str, object]) -> None:
        json.dump(event, self._file, separators=(",", ":"), sort_keys=True)
        self._file.write("\n")
        self._file.flush()
        self.events_written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()


def read_jsonl(path: "str | Path") -> List[Dict[str, object]]:
    """Parse a JSONL trace back into event dicts (validation helper)."""
    events = []
    with io.open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSONL ({exc})"
                ) from exc
            if not isinstance(event, dict) or "event" not in event:
                raise ValueError(
                    f"{path}:{line_number}: trace events must be objects "
                    "with an 'event' kind"
                )
            events.append(event)
    return events
