"""The cell engine: run every repetition of a grid, cache and fan out.

A figure reproduction is a grid of independent *cells* — one
``(config, scheduler, seed)`` triple per repetition per sweep point — and
nothing about the paper's evaluation couples them: every cell rebuilds its
own workload and scheduler from the seed.  :func:`run_grid` is the only
code that runs repetitions and folds them into a
:class:`~repro.experiments.runner.CellResult`; a plain serial run is the
same call at ``jobs=1`` with no cache directory.  On top of that one loop:

* **fan-out** — with ``jobs > 1`` cells execute on a ``multiprocessing``
  pool.  Every worker rebuilds its cells' state from the pickled cell
  alone, the same discipline the live cluster already enforces, and a
  cell's record does not depend on how its worker started.  On Linux a
  single-threaded parent *forks* its workers: a fork costs milliseconds
  where a fresh interpreter pays its start-up and the package import
  (~0.3 s) before its first cell, which is as long as a whole quick
  figure grid.  Elsewhere, or with other threads running, workers are
  *spawned*;
* **content-addressed cache** — with a ``cache_dir`` each finished cell
  persists one small JSON record under ``<cache_dir>/<config digest>/``,
  keyed by the config's
  :meth:`~repro.experiments.config.ExperimentConfig.cache_fields` hash plus
  ``(scheduler, seed)``; the cache is consulted on every call, so re-runs
  (``--resume`` after an interruption, ``--runs 10`` after ``--runs 3``)
  execute only the missing cells;
* **deterministic merge** — results aggregate in ``config.seeds()`` order
  regardless of completion order, worker count, or cache hits, so figure
  JSON is byte-identical across every ``(jobs, cache)`` combination (CI's
  ``sweep-smoke`` job asserts the bytes);
* **observability** — one progress line per finished cell, per-cell wall
  timing into the metrics registry (``sweep_cell_seconds``), and hit/miss
  counters (``sweep_cells{source=...}``).

A spec is ``(config, scheduler_name)``, or ``(config, scheduler_name,
backend)`` when every repetition departs from the config the same way — a
table row's :class:`~repro.runtime.sim.SimBackend` variant.  Where a cell
runs and whether it is cached are read off the cell itself.  A cell on a
:attr:`~repro.runtime.backend.ExecutionBackend.live` backend spawns its
own worker processes and binds a listening socket, so it runs in the
parent, one at a time; every other cell may go to a pool worker.  A
cell carrying a backend instance has no content address (the config does
not say what the instance substitutes), so it is never cached.

Units: everything a :class:`CellRecord` stores under a ``*_time`` /
``makespan`` name is virtual quanta (one tuple-check = 1.0 unit);
``wall_seconds`` and ``elapsed_seconds`` are real host seconds.
Process-safety: cache writes are atomic (temp file + ``os.replace``), so
concurrent sweeps sharing a cache directory at worst recompute a cell —
they can never read a torn record.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
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

#: Bump when the CellRecord schema changes: a new version can never read
#: (or be poisoned by) records written by an older one.
#: v2: records carry the cell's counter deltas, so cached cells keep
#: their metrics contribution on --resume.
#: v3: records carry the run's schedulability-oracle regret section, and
#: the config grew a ``scheduler`` cache field.
#: v4: records carry the run's migration section, and the config grew
#: ``domains`` / ``partition_policy`` cache fields.
CACHE_SCHEMA_VERSION = 4

#: The cache directory the CLI defaults to (relative to the working dir).
DEFAULT_CACHE_DIR = "results/cache"


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
    #: name, the only kind of cell the config fully describes (and so the
    #: only kind the cache may hold).
    backend: Optional[ExecutionBackend] = None

    def resolve_backend(self) -> ExecutionBackend:
        """The instance this cell runs on."""
        return self.backend or get_backend(self.config.backend)


@dataclass(frozen=True)
class CellRecord:
    """The per-repetition scalars every aggregation consumes, cache-stably.

    Exactly the values :class:`~repro.experiments.runner.CellResult` reads
    off a :class:`~repro.runtime.report.RunReport`, captured once so a
    cached cell aggregates bit-identically to a fresh one (JSON floats
    round-trip exactly via ``repr``).  ``total_scheduling_time`` and
    ``makespan`` are virtual quanta; ``wall_seconds`` is the backend's
    reported real time and ``elapsed_seconds`` the engine-measured wall
    time of producing this record (0.0 when it came from the cache).
    Immutable, hence safe to share across threads.
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
    #: quanta); 0.0 for every run under the worst-case execution model, so
    #: records written before the field existed read back exactly.
    reclaimed_time: float = 0.0
    #: Counter deltas this cell's run produced (``format_key`` -> value).
    #: Persisted with the record so a cached cell still contributes its
    #: metrics to ``--metrics-out`` on resume; empty when the run was
    #: uninstrumented.
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

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, the JSON cache-file payload."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellRecord":
        """Rebuild a record from :meth:`as_dict` output (cache read path)."""
        return cls(**payload)


# ----- content-addressed cache ----------------------------------------------


def config_digest(config: ExperimentConfig) -> str:
    """Stable hex digest of everything one seeded run reads from ``config``.

    Hashes the canonical JSON of :meth:`ExperimentConfig.cache_fields`
    plus :data:`CACHE_SCHEMA_VERSION`.  Execution knobs (``jobs``,
    ``cache_dir``) are excluded by construction, so the same workload
    computed serially and in parallel shares one digest; so is the
    statistics block (``runs``, ``base_seed``), which no run reads — the
    seed is in the record's file name — so a longer sweep reuses every
    seed already computed.  Digests changed once when the
    statistics block left the key: records written before that are never
    found again (and never misread).
    """
    canonical = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, **config.cache_fields()},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepCache:
    """One directory of finished-cell records, keyed by config digest.

    Layout: ``<root>/<digest[:16]>/<scheduler>-seed<seed>.json`` plus a
    ``config.json`` manifest per digest directory for human inspection.
    Writes are atomic (temp file + ``os.replace``), so the cache is safe
    under concurrent sweeps from multiple processes; loads of missing or
    torn entries return ``None`` (the cell simply re-executes).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def cell_path(self, cell: SweepCell) -> Path:
        """Where ``cell``'s record lives (whether or not it exists yet)."""
        digest = config_digest(cell.config)
        return (
            self.root
            / digest[:16]
            / f"{cell.scheduler_name}-seed{cell.seed}.json"
        )

    def load(self, cell: SweepCell) -> Optional[CellRecord]:
        """The cached record for ``cell``, or ``None`` on any miss.

        Unreadable or schema-mismatched files count as misses, never as
        errors: a half-written entry from an interrupted sweep must not
        wedge the resume that is trying to recover from it.
        """
        path = self.cell_path(cell)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = CellRecord.from_dict(payload["record"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return record

    def store(self, cell: SweepCell, record: CellRecord) -> Path:
        """Atomically persist ``cell``'s record; returns the final path."""
        path = self.cell_path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        manifest = path.parent / "config.json"
        if not manifest.exists():
            self._write_atomic(
                manifest,
                json.dumps(cell.config.cache_fields(), indent=2,
                           sort_keys=True),
            )
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "config_digest": config_digest(cell.config),
            "record": record.as_dict(),
        }
        self._write_atomic(path, json.dumps(document, indent=2,
                                            sort_keys=True))
        return path

    def _write_atomic(self, path: Path, text: str) -> None:
        """Write-then-rename so readers never observe a partial file."""
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temp.write_text(text + "\n", encoding="utf-8")
        os.replace(temp, path)


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
    payload: Tuple[int, SweepCell, Optional[str]]
) -> Tuple[int, Dict[str, object]]:
    """Pool worker: run one cell and return ``(index, record dict)``.

    ``payload`` is ``(index, cell, trace_path)``.  A child never writes
    to the parent's sink or registry — a forked one still holds copies of
    both — so it runs with instrumentation disabled unless the parent is
    tracing and passes a path: the child then instruments itself into a
    private JSONL file there, with a fresh registry whose values *are* the
    cell's counter deltas, and the parent adopts both when the cell
    finishes — ``--trace-out --jobs N`` loses nothing relative to
    ``--jobs 1``.  Module-level by necessity: spawn pickles the function
    by reference.
    """
    index, cell, trace_path = payload
    if trace_path is None:
        with instrumented(NULL_INSTRUMENTATION):
            record = _run_here(cell, NULL_INSTRUMENTATION)
        return index, record.as_dict()
    obs = Instrumentation(
        metrics=MetricsRegistry(),
        logger=StructuredLogger(name="repro.sweep", level=OFF),
        sink=JsonlSink(trace_path),
    )
    try:
        with instrumented(obs):
            record = _run_here(cell, obs)
    finally:
        obs.close()
    return index, record.as_dict()


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

    payloads = [(index, cell, trace_path(index)) for index, cell in items]
    try:
        context = multiprocessing.get_context(_start_method())
        with context.Pool(processes=min(jobs, len(items))) as pool:
            for index, payload in pool.imap_unordered(_run_in_child, payloads):
                if trace_dir:
                    _adopt_cell_trace(obs, trace_path(index))
                yield index, CellRecord.from_dict(payload)
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
    """What one :func:`run_grid` invocation actually did (wall seconds)."""

    total_cells: int = 0
    executed: int = 0
    cached: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0


@dataclass
class SweepOutcome:
    """Aggregated results in spec order plus the execution accounting."""

    #: One CellResult per spec, in call order.
    cells: List[CellResult] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)


def run_grid(
    specs: Sequence[tuple],
    *,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> SweepOutcome:
    """Run every repetition of every spec and fold each into a cell.

    A spec is ``(config, scheduler_name)``, optionally followed by the
    backend instance every repetition runs on (a simulator variant; never
    cached).  The execution knobs default to the first config's ``jobs`` /
    ``cache_dir`` fields (keyword arguments override).  Cells found in the
    cache are not re-executed; with ``jobs > 1`` the rest fan across a
    pool of that many workers, except a live backend's, which stay
    in the parent and run one at a time.  With ``jobs=1`` every cell runs
    here, in order.

    Aggregation order is fixed by ``specs`` and ``config.seeds()`` — never
    by completion order — so the returned :class:`SweepOutcome` is
    bit-identical for any worker count or cache state.  Safe to call from
    any thread, but do not share one cache directory between two
    *schemas*; the version stamp protects reads either way.
    """
    if not specs:
        return SweepOutcome()
    first = specs[0][0]
    jobs = first.jobs if jobs is None else jobs
    cache_dir = first.cache_dir if cache_dir is None else cache_dir
    if jobs <= 0:
        raise ValueError("jobs must be positive (1 = serial)")
    cache = SweepCache(cache_dir) if cache_dir else None

    # One flat, deterministically indexed cell list across all specs.
    cells: List[SweepCell] = []
    spec_slices: List[Tuple[int, int]] = []
    for config, scheduler_name, *backend in specs:
        start = len(cells)
        for seed in config.seeds():
            cells.append(SweepCell(config, scheduler_name, seed, *backend))
        spec_slices.append((start, len(cells)))

    obs = get_instrumentation()
    records: Dict[int, CellRecord] = {}
    pending: List[Tuple[int, SweepCell]] = []
    for index, cell in enumerate(cells):
        cached = cache.load(cell) if cache and not cell.backend else None
        if cached is not None:
            records[index] = cached
            _note_cell(obs, cell, cached, index, len(cells), source="cache")
        else:
            pending.append((index, cell))

    stats = SweepStats(total_cells=len(cells), cached=len(records), jobs=jobs)
    obs.logger.info(
        "sweep start",
        cells=len(cells),
        cached=stats.cached,
        to_run=len(pending),
        jobs=jobs,
    )

    def finish(index: int, record: CellRecord) -> None:
        """Accept one freshly executed cell: record, cache, account, log."""
        cell = cells[index]
        records[index] = record
        stats.executed += 1
        if cache and not cell.backend:
            cache.store(cell, record)
        _note_cell(obs, cell, record, index, len(cells), source="run")

    started = time.perf_counter()
    pooled = [
        (index, cell)
        for index, cell in pending
        if not cell.resolve_backend().live
    ]
    if jobs > 1 and len(pooled) > 1:  # a pool of one buys nothing
        for index, record in _run_in_pool(pooled, jobs, obs):
            finish(index, record)
    for index, cell in pending:
        if index not in records:
            finish(index, _run_here(cell, obs))

    stats.elapsed_seconds = time.perf_counter() - started
    obs.logger.info(
        "sweep done",
        cells=stats.total_cells,
        executed=stats.executed,
        cached=stats.cached,
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
            # over the spec's records: fresh cells captured them at
            # execution time (in the child or around the in-parent run)
            # and cached cells persisted them in their cache records, so a
            # resumed sweep reports the same totals as the run that
            # populated the cache.
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

    Append per repetition, sum the violations: cached, pooled and
    in-parent records fold through these same lines, so they cannot
    diverge even in float rounding.
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
    obs, cell: SweepCell, record: CellRecord, index: int, total: int,
    *, source: str,
) -> None:
    """Per-cell observability: progress line, timing histogram, counters."""
    if not obs.enabled:
        return
    obs.metrics.counter("sweep_cells", source=source).inc()
    if source == "run":
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
        source=source,
        elapsed_s=round(record.elapsed_seconds, 3),
    )
