"""The cell engine: run every repetition of a grid, and fan it out.

A figure reproduction is a grid of independent *cells* — one
``(config, scheduler, seed)`` triple per repetition per sweep point — and
nothing about the paper's evaluation couples them: every cell rebuilds its
own workload and scheduler from the seed.  :func:`run_grid` is the only
code that runs repetitions and folds them into a
:class:`~repro.experiments.runner.CellResult`; a plain serial run is the
same call at ``jobs=1``.  On top of that one loop:

* **fan-out** — with ``jobs > 1`` cells execute on a ``multiprocessing``
  pool.  Every worker rebuilds its cells' state from the pickled cell
  alone, the same discipline the live cluster already enforces, and a
  cell's record does not depend on how its worker started.  On Linux a
  single-threaded parent *forks* its workers: a fork costs milliseconds
  where a fresh interpreter pays its start-up and the package import
  (~0.3 s) before its first cell, which is as long as a whole quick
  figure grid.  Elsewhere, or with other threads running, workers are
  *spawned*;
* **deterministic merge** — results aggregate in ``config.seeds()`` order
  regardless of completion order or worker count, so figure JSON is
  byte-identical for every ``jobs`` (CI's ``sweep-smoke`` job asserts the
  bytes);
* **observability** — one progress line per finished cell, per-cell wall
  timing into the metrics registry (``sweep_cell_seconds``), and a cell
  counter (``sweep_cells``).

A spec is ``(config, scheduler_name)``, or ``(config, scheduler_name,
backend)`` when every repetition departs from the config the same way — a
table row's :class:`~repro.runtime.sim.SimBackend` variant.  Where a cell
runs is read off the cell itself.  A cell on a
:attr:`~repro.runtime.backend.ExecutionBackend.live` backend spawns its
own worker processes and binds a listening socket, so it runs in the
parent, one at a time; every other cell may go to a pool worker.

Units: everything a :class:`CellRecord` stores under a ``*_time`` /
``makespan`` name is virtual quanta (one tuple-check = 1.0 unit);
``wall_seconds`` and ``elapsed_seconds`` are real host seconds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..observability import (
    NULL_INSTRUMENTATION,
    NULL_SINK,
    OFF,
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    StructuredLogger,
    get_instrumentation,
    instrumented,
    read_jsonl,
)
from ..runtime.backend import ExecutionBackend, get_backend
from .config import ExperimentConfig
from .runner import CellResult, run_once

# ----- the unit of work ------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One schedulable unit: run ``scheduler_name`` on ``config`` at ``seed``.

    Frozen and picklable (the config is a frozen dataclass of plain types,
    a backend instance holds policy objects and module-level functions),
    so a cell crosses the process boundary to a pool worker intact.
    """

    config: ExperimentConfig
    scheduler_name: str
    seed: int
    #: The spec's backend instance; ``None`` means ``config.backend`` by
    #: name.
    backend: Optional[ExecutionBackend] = None

    def resolve_backend(self) -> ExecutionBackend:
        """The instance this cell runs on."""
        return self.backend or get_backend(self.config.backend)


@dataclass(frozen=True)
class CellRecord:
    """The per-repetition scalars every aggregation consumes.

    Exactly the values :class:`~repro.experiments.runner.CellResult` reads
    off a :class:`~repro.runtime.report.RunReport`, captured once so a
    pooled cell aggregates bit-identically to an in-parent one: a pool
    child returns the record itself, and pickling round-trips its floats
    exactly.  ``total_scheduling_time`` and ``makespan`` are virtual
    quanta; ``wall_seconds`` is the backend's reported real time and
    ``elapsed_seconds`` the engine-measured wall time of producing this
    record.  Immutable, hence safe to share across threads.
    """

    scheduler_name: str
    seed: int
    backend: str
    hit_percent: float
    dead_end_rate: float
    mean_depth: float
    mean_processors_touched: float
    total_scheduling_time: float
    makespan: float
    guaranteed_violations: int
    num_phases: int
    wall_seconds: float
    elapsed_seconds: float = 0.0
    #: Worst-case processor time reclaimed by early completions (virtual
    #: quanta); 0.0 for every run under the worst-case execution model.
    reclaimed_time: float = 0.0
    #: Counter deltas this cell's run produced (``format_key`` -> value),
    #: carried back from a pool child for ``--metrics-out``; empty when
    #: the run was uninstrumented.
    counters: Dict[str, float] = field(default_factory=dict)
    #: The run's schedulability-oracle verdict + regret (see
    #: :func:`repro.analysis.schedulability.regret_section`); empty when
    #: the oracle was not consulted.
    regret: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_report(cls, report, elapsed_seconds: float = 0.0) -> "CellRecord":
        """Capture one run's aggregation inputs from its ``RunReport``."""
        return cls(
            scheduler_name=report.scheduler_name,
            seed=report.seed,
            backend=report.backend,
            hit_percent=report.hit_percent,
            dead_end_rate=report.dead_end_rate,
            mean_depth=report.mean_depth,
            mean_processors_touched=report.mean_processors_touched,
            total_scheduling_time=report.total_scheduling_time,
            makespan=report.makespan,
            guaranteed_violations=report.guaranteed_violations,
            num_phases=report.num_phases,
            wall_seconds=report.wall_seconds,
            elapsed_seconds=elapsed_seconds,
            reclaimed_time=report.reclaimed_time,
            regret=dict(report.regret),
        )


# ----- running one cell ------------------------------------------------------


def _run_here(cell: SweepCell, obs) -> CellRecord:
    """Run one cell in this process, under ``obs``; returns its record.

    The run goes through :func:`~repro.experiments.runner.run_once`, so
    trace events reach ``obs``'s sink directly and only the cell's counter
    deltas need capturing.
    """
    before = _counter_values(obs)
    start = time.perf_counter()
    report = run_once(
        cell.config,
        cell.scheduler_name,
        cell.seed,
        backend=cell.resolve_backend(),
    )
    elapsed = time.perf_counter() - start
    return replace(
        CellRecord.from_report(report, elapsed_seconds=elapsed),
        counters=_counter_delta(before, _counter_values(obs)),
    )


def _run_in_child(
    payload: Tuple[int, SweepCell, bool, Optional[str]]
) -> Tuple[int, CellRecord]:
    """Pool worker: run one cell and return ``(index, record)``.

    ``payload`` is ``(index, cell, counted, trace_path)``.  A child never
    writes to the parent's sink or registry — a forked one still holds
    copies of both.  When the parent is instrumented (``counted``), the
    child runs under a fresh registry whose values *are* the cell's
    counter deltas, returned on the record; when the parent also traces,
    the child writes its events to a private JSONL file at
    ``trace_path``, which the parent adopts as the cell finishes.  So
    ``--metrics-out`` and ``--trace-out`` at ``--jobs N`` lose nothing
    relative to ``--jobs 1``.  Otherwise the child runs uninstrumented.
    Module-level by necessity: spawn pickles the function by reference.
    """
    index, cell, counted, trace_path = payload
    if not counted:
        with instrumented(NULL_INSTRUMENTATION):
            return index, _run_here(cell, NULL_INSTRUMENTATION)
    obs = Instrumentation(
        metrics=MetricsRegistry(),
        logger=StructuredLogger(name="repro.sweep", level=OFF),
        sink=JsonlSink(trace_path) if trace_path else None,
    )
    try:
        with instrumented(obs):
            return index, _run_here(cell, obs)
    finally:
        obs.close()


def _run_in_pool(
    items: Sequence[Tuple[int, SweepCell]], jobs: int, obs
) -> Iterator[Tuple[int, CellRecord]]:
    """Fan ``items`` over a worker pool; yields ``(index, record)`` as done.

    When the parent is tracing, each child writes a private per-cell
    JSONL file that the parent adopts (re-emits, then deletes) as the
    cell finishes — same event set as an in-parent run, completion order.
    """
    trace_dir = (
        tempfile.mkdtemp(prefix="repro-sweep-trace-")
        if obs.enabled and obs.sink is not NULL_SINK
        else None
    )

    def trace_path(index: int) -> Optional[str]:
        """Where cell ``index``'s child writes its trace, if anyone does."""
        if trace_dir is None:
            return None
        return os.path.join(trace_dir, f"cell-{index}.jsonl")

    # Imported here: a serial sweep, every simulator run's, starts no pool.
    import multiprocessing

    payloads = [
        (index, cell, obs.enabled, trace_path(index)) for index, cell in items
    ]
    try:
        context = multiprocessing.get_context(_start_method())
        with context.Pool(processes=min(jobs, len(items))) as pool:
            for index, record in pool.imap_unordered(_run_in_child, payloads):
                if trace_dir:
                    _adopt_cell_trace(obs, trace_path(index))
                yield index, record
    finally:
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)


def _start_method() -> str:
    """How the pool starts its workers: fork where that is safe, else spawn.

    Forking copies only the calling thread, so a lock another thread held
    would stay held in the child; Linux with no other thread running is
    where a fork is both safe and what the platform supports well.
    """
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


# ----- the engine ------------------------------------------------------------


@dataclass
class SweepStats:
    """What one :func:`run_grid` invocation did (wall seconds)."""

    total_cells: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0


@dataclass
class SweepOutcome:
    """Aggregated results in spec order plus the execution accounting."""

    #: One CellResult per spec, in call order.
    cells: List[CellResult] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)


def run_grid(
    specs: Sequence[tuple], *, jobs: Optional[int] = None
) -> SweepOutcome:
    """Run every repetition of every spec and fold each into a cell.

    A spec is ``(config, scheduler_name)``, optionally followed by the
    backend instance every repetition runs on (a simulator variant).
    ``jobs`` defaults to the first config's ``jobs`` field.  With
    ``jobs > 1`` the cells fan across a pool of that many workers, except
    a live backend's, which stay in the parent and run one at a time;
    with ``jobs=1`` every cell runs here, in order.

    Aggregation order is fixed by ``specs`` and ``config.seeds()`` — never
    by completion order — so the returned :class:`SweepOutcome` is
    bit-identical for any worker count.
    """
    if not specs:
        return SweepOutcome()
    jobs = specs[0][0].jobs if jobs is None else jobs
    if jobs <= 0:
        raise ValueError("jobs must be positive (1 = serial)")

    # One flat, deterministically indexed cell list across all specs.
    cells: List[SweepCell] = []
    spec_slices: List[Tuple[int, int]] = []
    for config, scheduler_name, *backend in specs:
        start = len(cells)
        for seed in config.seeds():
            cells.append(SweepCell(config, scheduler_name, seed, *backend))
        spec_slices.append((start, len(cells)))

    obs = get_instrumentation()
    stats = SweepStats(total_cells=len(cells), jobs=jobs)
    obs.logger.info("sweep start", cells=len(cells), jobs=jobs)
    records: Dict[int, CellRecord] = {}

    def finish(index: int, record: CellRecord) -> None:
        """Accept one executed cell: record, account, log."""
        records[index] = record
        _note_cell(obs, cells[index], record, index, len(cells))

    started = time.perf_counter()
    pooled = [
        (index, cell)
        for index, cell in enumerate(cells)
        if not cell.resolve_backend().live
    ]
    if jobs > 1 and len(pooled) > 1:  # a pool of one buys nothing
        for index, record in _run_in_pool(pooled, jobs, obs):
            finish(index, record)
    for index, cell in enumerate(cells):
        if index not in records:
            finish(index, _run_here(cell, obs))

    stats.elapsed_seconds = time.perf_counter() - started
    obs.logger.info(
        "sweep done",
        cells=stats.total_cells,
        jobs=stats.jobs,
        elapsed_s=round(stats.elapsed_seconds, 3),
    )

    outcome = SweepOutcome(stats=stats)
    for (config, scheduler_name, *_), (start, stop) in zip(specs, spec_slices):
        ordered = [records[index] for index in range(start, stop)]
        cell = _aggregate(config, scheduler_name, ordered)
        outcome.cells.append(cell)
        if obs.enabled:
            # The per-cell summary of --metrics-out.  Counter deltas sum
            # over the spec's records, each captured at execution time (in
            # the child or around the in-parent run).
            summed: Dict[str, float] = {}
            for record in ordered:
                for key, value in record.counters.items():
                    summed[key] = summed.get(key, 0) + value
            obs.record_cell(
                {
                    "scheduler": scheduler_name,
                    "backend": config.backend,
                    "processors": config.num_processors,
                    "replication": config.replication_rate,
                    "slack_factor": config.slack_factor,
                    "transactions": config.num_transactions,
                    "runs": config.runs,
                    "mean_hit_percent": cell.mean_hit_percent,
                    "mean_dead_end_rate": cell.mean_dead_end_rate,
                    "scheduled_but_missed": cell.scheduled_but_missed,
                    "counters": summed,
                }
            )
    return outcome


def _counter_values(obs) -> Dict[str, float]:
    """Flat ``format_key -> value`` view of the registry's counters."""
    if not obs.enabled:
        return {}
    return dict(obs.metrics.snapshot()["counters"])


def _counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Counters that moved between two :func:`_counter_values` snapshots."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }


def _adopt_cell_trace(obs, path: str) -> None:
    """Re-emit one pool child's private trace file into the parent sink.

    Unreadable or half-written files are skipped, never fatal: a child
    that died mid-write already failed louder elsewhere, and a trace must
    not take the sweep down with it.  The file is deleted after adoption.
    """
    try:
        events = read_jsonl(path)
    except (OSError, ValueError):
        return
    for event in events:
        obs.sink.emit(event)
    try:
        os.unlink(path)
    except OSError:
        pass


def _aggregate(
    config: ExperimentConfig, scheduler_name: str, records: List[CellRecord]
) -> CellResult:
    """Fold per-seed records into one ``CellResult`` in seed order.

    Append per repetition, sum the violations: pooled and in-parent
    records fold through these same lines, so they cannot diverge even in
    float rounding.
    """
    return CellResult(
        scheduler_name=scheduler_name,
        config=config,
        hit_percents=[r.hit_percent for r in records],
        dead_end_rates=[r.dead_end_rate for r in records],
        mean_depths=[r.mean_depth for r in records],
        processors_touched=[r.mean_processors_touched for r in records],
        scheduling_times=[r.total_scheduling_time for r in records],
        makespans=[r.makespan for r in records],
        reclaimed_times=[r.reclaimed_time for r in records],
        scheduled_but_missed=sum(r.guaranteed_violations for r in records),
        regrets=[dict(r.regret) for r in records],
    )


def _note_cell(
    obs, cell: SweepCell, record: CellRecord, index: int, total: int
) -> None:
    """Per-cell observability: progress line, timing histogram, counter."""
    if not obs.enabled:
        return
    obs.metrics.counter("sweep_cells").inc()
    obs.metrics.histogram(
        "sweep_cell_seconds",
        scheduler=cell.scheduler_name,
        backend=record.backend,
    ).observe(record.elapsed_seconds)
    obs.logger.info(
        "cell done",
        cell=f"{index + 1}/{total}",
        scheduler=cell.scheduler_name,
        seed=cell.seed,
        backend=record.backend,
        processors=cell.config.num_processors,
        replication=cell.config.replication_rate,
        hit_percent=round(record.hit_percent, 2),
        elapsed_s=round(record.elapsed_seconds, 3),
    )
