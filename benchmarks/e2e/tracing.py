"""In-memory span recorder for the benchmark's traced runs.

The program under test has no per-layer timing of its own, so a traced run
replaces each layer's public callables with wrappers that record a span
(name, start, end, parent, repetition id) around the call.  Everything here
lives on the benchmark's side of the boundary: an untraced run never
imports a wrapper, and a callable that a later refactor renames is reported
as missing instead of breaking the run.

Single-threaded by design: every traced workload calls its layers from one
thread (the simulator's, or the service master's selector loop).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Field positions of one span record.
NAME, START, END, PARENT, REP = range(5)


class Tracer:
    """Records nested spans; ``spans`` is the flat list, parents by index."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._reps = 0

    def enter(self, name: str, new_rep: bool = False) -> int:
        """Open a span under the innermost open one; returns its index.

        ``new_rep`` starts a new repetition: the span and everything it
        causes share a fresh id, so one ``run_once`` can be followed
        through every layer.
        """
        parent = self._stack[-1] if self._stack else -1
        if new_rep:
            self._reps += 1
            rep = self._reps
        else:
            rep = self.spans[parent][REP] if parent >= 0 else 0
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, rep])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        """Close the span ``enter`` returned; spans close innermost first."""
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a ``with`` block (the benchmark's own root spans)."""
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def take(self) -> List[list]:
        """The spans recorded so far; recording starts over.

        Only between sections, when no span is open: indices of parents
        are positions in the list handed back.
        """
        spans, self.spans = self.spans, []
        return spans

    def wrap(
        self,
        name: str,
        fn: Callable,
        new_rep: bool = False,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``after(result)`` runs outside the span, for callers that need to
        count or proxy what the call returned.
        """

        def traced(*args, **kwargs):
            index = self.enter(name, new_rep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced



def write_spans(spans: Sequence[Sequence], path: str) -> None:
    """Dump spans as JSON lines (called once, when the run ends)."""
    with open(path, "w", encoding="utf-8") as out:
        for index, span in enumerate(spans):
            record = dict(zip(("name", "start", "end", "parent", "rep"), span))
            record["id"] = index
            out.write(json.dumps(record) + "\n")


def self_times(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which lie inside it and never overlap each other.
    """
    inside = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            inside[span[PARENT]] += span[END] - span[START]
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "total": 0.0, "self": 0.0}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - inside[index]
    return totals


def locate(dotted: str) -> Tuple[object, str]:
    """The object owning ``dotted``'s last attribute, and that attribute.

    Imports the longest module prefix, then walks attributes (a class, for
    a method).  Raises ``ImportError``/``AttributeError`` when the name no
    longer exists.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no importable module in {dotted!r}")


def install(
    tracer: Tracer,
    targets: Sequence[Tuple[str, str, dict]],
    package: str = "repro",
) -> List[str]:
    """Wrap each ``(dotted name, span name, wrap options)`` target.

    A function is replaced in every loaded module of ``package`` that has
    bound it (``from x import f`` copies the reference, so patching the
    defining module alone would miss those callers); a method is replaced
    on its class.  Returns the names that no longer resolve.
    """
    missing: List[str] = []
    for dotted, span_name, options in targets:
        try:
            owner, attr = locate(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
            continue
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:  # inherited: wrap where it is defined
                missing.append(dotted)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    tracer.wrap(span_name, raw.__func__, **options)
                )
            else:
                wrapped = tracer.wrap(span_name, raw, **options)
            setattr(owner, attr, wrapped)
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, **options)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == package or name.startswith(package + ".")
            ):
                continue
            for bound, value in list(vars(module).items()):
                if value is original:
                    setattr(module, bound, wrapped)
    return missing
