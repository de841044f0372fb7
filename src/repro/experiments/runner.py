"""Experiment runner: build everything, run repetitions, aggregate.

One *cell* is (config, scheduler); the runner builds the database, the
transaction workload, the machine, and the scheduler from the config, runs
the cell ``config.runs`` times with distinct seeds, and aggregates hit
ratios with the paper's statistics (mean, 99% CI).

*Where* each repetition runs is the config's (or the caller's) choice:
:func:`run_once` dispatches through the
:class:`~repro.runtime.backend.ExecutionBackend` registry, so the same
cell definition executes on the virtual-clock simulator or the live TCP
cluster and comes back as the same
:class:`~repro.runtime.report.RunReport`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.schedulability import (
    analyze_tasks,
    regret_section,
    unknown_regret_section,
)
from ..core.affinity import UniformCommunicationModel
from ..core.cost import VertexEvaluator
from ..core.quantum import QuantumPolicy
from ..core.registry import SCHEDULER_NAMES, SchedulerContext, make_scheduler
from ..core.scheduler import Scheduler
from ..core.task import Task
from ..metrics.regret import summarize_regret
from ..metrics.stats import ConfidenceInterval, confidence_interval, mean
from ..observability import get_instrumentation
from ..runtime.backend import ExecutionBackend, get_backend
from ..runtime.report import RunReport
from ..workload.transactions import build_seeded_workload
from .config import ExperimentConfig

def build_scheduler(
    name: str,
    config: ExperimentConfig,
    comm: UniformCommunicationModel,
    evaluator: Optional[VertexEvaluator] = None,
    quantum_policy: Optional[QuantumPolicy] = None,
) -> Scheduler:
    """Instantiate a scheduler by registry name with optional overrides.

    Thin adapter over :func:`repro.core.registry.make_scheduler`: it packs
    the experiment-level knobs into a
    :class:`~repro.core.registry.SchedulerContext` so builders stay
    ignorant of :class:`ExperimentConfig`.
    """
    return make_scheduler(
        name,
        SchedulerContext(
            comm=comm,
            per_vertex_cost=config.per_vertex_cost,
            evaluator=evaluator,
            quantum_policy=quantum_policy,
        ),
    )


def build_workload(config: ExperimentConfig, seed: int):
    """Database + tasks for one repetition; returns (database, task set)."""
    database, tasks, _transactions = build_seeded_workload(config, seed)
    return database, tasks


#: Tasks the process-wide workload memo may retain; the latest workload is
#: kept whatever its size.  Large enough for the repetitions of one
#: quick-scale figure cell, or two paper-scale workloads, to stay resident
#: while the other scheduler of the cell and the oracle ask for them again;
#: small enough (about a megabyte of ``Task`` objects) that a sweep's peak
#: memory stays that of its largest run.
WORKLOAD_MEMO_TASKS = 2048


class WorkloadMemo:
    """Seeded task lists already built, least recently used first.

    A generated workload is a pure function of ``(config.workload_key(),
    seed)``: the schedulers of a figure cell, every domain count of a shard
    curve and the schedulability oracle all ask for the same one.  Hits
    return the same immutable tuple of (frozen) tasks, never the database.
    One lock covers lookup, build and eviction, so threads sharing a
    backend build each workload once.
    """

    def __init__(self, max_tasks: int = WORKLOAD_MEMO_TASKS) -> None:
        self.max_tasks = max_tasks
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Tuple[Task, ...]]" = OrderedDict()

    def tasks(self, config: ExperimentConfig, seed: int) -> Tuple[Task, ...]:
        """The tasks of ``(config, seed)``, built on the first request."""
        key = (config.workload_key(), seed)
        with self._lock:
            tasks = self._entries.get(key)
            if tasks is not None:
                self._entries.move_to_end(key)
                return tasks
            _, built = build_workload(config, seed)
            tasks = self._entries[key] = tuple(built)
            retained = self.retained_tasks()
            while retained > self.max_tasks and len(self._entries) > 1:
                _, oldest = self._entries.popitem(last=False)
                retained -= len(oldest)
            return tasks

    def retained_tasks(self) -> int:
        """How many tasks the memo currently keeps alive."""
        return sum(map(len, self._entries.values()))


_WORKLOADS = WorkloadMemo()


def workload_tasks(config: ExperimentConfig, seed: int) -> Tuple[Task, ...]:
    """Tasks of one seeded repetition, built once per process.

    The front door of :func:`build_workload` for everything that only
    schedules or analyses the tasks: a miss builds the workload there, a
    hit costs a dictionary lookup (see :class:`WorkloadMemo`).
    """
    return _WORKLOADS.tasks(config, seed)


def run_once(
    config: ExperimentConfig,
    scheduler_name: str,
    seed: int,
    evaluator: Optional[VertexEvaluator] = None,
    quantum_policy: Optional[QuantumPolicy] = None,
    validate_phases: bool = False,
    backend: Union[str, ExecutionBackend, None] = None,
) -> RunReport:
    """One full run of one cell with one seed on one backend.

    ``backend`` (a registry name or a pre-built
    :class:`~repro.runtime.backend.ExecutionBackend` instance) overrides
    ``config.backend``; the default follows the config, so a plain
    ``run_once(config, name, seed)`` keeps running on the simulator.
    """
    chosen = get_backend(backend if backend is not None else config.backend)
    report = chosen.run_once(
        config,
        scheduler_name,
        seed,
        evaluator=evaluator,
        quantum_policy=quantum_policy,
        validate_phases=validate_phases,
    )
    if not report.regret:
        report.regret = _regret_for(report, config, seed)
    return report


#: Backends whose workload :func:`build_workload` reconstructs exactly
#: (the live cluster and the sharded runtime mirror the simulator's
#: generator, same seed — partitioning never changes the task set).
_ORACLE_BACKENDS = frozenset({"sim", "cluster", "sharded"})


def _regret_for(
    report: RunReport, config: ExperimentConfig, seed: int
) -> dict:
    """Oracle verdict + regret for one finished run.

    The oracle analyses the run's workload offline — the very task list a
    simulated run used (:func:`workload_tasks`), and an exact rebuild
    whenever the backend derives its task set deterministically from
    ``(config, seed)``.  Backends that mint tasks at request time (the
    streaming service) get an explicit ``unknown`` placeholder instead,
    keeping the exported schema identical everywhere.
    """
    if report.backend not in _ORACLE_BACKENDS:
        return unknown_regret_section(
            report.total_tasks, report.num_workers
        )
    verdict = analyze_tasks(
        workload_tasks(config, seed), config.num_processors
    )
    return regret_section(verdict, report.deadline_hits)


@dataclass
class CellResult:
    """Aggregate of all repetitions of one (config, scheduler) cell."""

    scheduler_name: str
    config: ExperimentConfig
    hit_percents: List[float]
    dead_end_rates: List[float]
    mean_depths: List[float]
    processors_touched: List[float]
    scheduling_times: List[float]
    makespans: List[float]
    scheduled_but_missed: int
    #: One schedulability-oracle regret section per repetition (empty
    #: dicts when the oracle was not consulted for that run).
    regrets: List[Dict[str, object]] = field(default_factory=list)

    def regret_summary(self) -> Dict[str, object]:
        """Per-cell aggregate of the repetitions' oracle verdicts."""
        return summarize_regret(self.regrets)

    @property
    def mean_hit_percent(self) -> float:
        """Mean deadline hit ratio (%) across repetitions — the y axis."""
        return mean(self.hit_percents)

    def hit_ci(self) -> Optional[ConfidenceInterval]:
        """Confidence interval on the hit ratio, or None below 2 runs."""
        if len(self.hit_percents) < 2:
            return None
        return confidence_interval(self.hit_percents, self.config.confidence)

    @property
    def mean_dead_end_rate(self) -> float:
        """Mean fraction of phases ending in a search dead end."""
        return mean(self.dead_end_rates)

    @property
    def mean_depth(self) -> float:
        """Mean search-tree depth reached per phase across repetitions."""
        return mean(self.mean_depths)

    @property
    def mean_processors_touched(self) -> float:
        """Mean processors the schedule actually used per phase."""
        return mean(self.processors_touched)


def run_cell(
    config: ExperimentConfig,
    scheduler_name: str,
    evaluator: Optional[VertexEvaluator] = None,
    quantum_policy: Optional[QuantumPolicy] = None,
    backend: Union[str, ExecutionBackend, None] = None,
) -> CellResult:
    """Run every repetition of a cell and aggregate the paper's metrics.

    When the config enables sweep execution (``jobs > 1`` or a
    ``cache_dir``) and no scheduler-construction overrides are given, the
    repetitions route through the parallel sweep engine
    (:func:`repro.experiments.sweep.run_grid`): cached repetitions are
    reused and missing ones may fan across worker processes.  Overrides
    (``evaluator``/``quantum_policy``, the ablation studies) force the
    serial in-process path — they are live objects that cannot be part of
    a cache key.  Either path aggregates in ``config.seeds()`` order, so
    results are bit-identical.  Not thread-safe under instrumentation
    (the metrics registry is unlocked); virtual quanta throughout.
    """
    # Resolve the backend once so the aggregated CellResult (and the
    # metrics snapshot) record where the cell actually ran, even when the
    # caller overrode the config's choice.
    resolved = get_backend(backend if backend is not None else config.backend)
    if config.backend != resolved.name:
        config = config.with_backend(resolved.name)
    backend = resolved
    if (
        evaluator is None
        and quantum_policy is None
        and (config.jobs > 1 or config.cache_dir)
    ):
        from .sweep import run_grid

        return run_grid([(config, scheduler_name)]).cells[0]
    obs = get_instrumentation()
    counters_before = (
        dict(obs.metrics.snapshot()["counters"]) if obs.enabled else {}
    )
    hit_percents: List[float] = []
    dead_end_rates: List[float] = []
    mean_depths: List[float] = []
    processors_touched: List[float] = []
    scheduling_times: List[float] = []
    makespans: List[float] = []
    regrets: List[Dict[str, object]] = []
    missed = 0
    seeds = config.seeds()
    for repetition, seed in enumerate(seeds, start=1):
        report = run_once(
            config,
            scheduler_name,
            seed,
            evaluator=evaluator,
            quantum_policy=quantum_policy,
            backend=backend,
        )
        hit_percents.append(report.hit_percent)
        dead_end_rates.append(report.dead_end_rate)
        mean_depths.append(report.mean_depth)
        processors_touched.append(report.mean_processors_touched)
        scheduling_times.append(report.total_scheduling_time)
        makespans.append(report.makespan)
        regrets.append(dict(report.regret))
        missed += report.guaranteed_violations
        obs.logger.info(
            "repetition done",
            scheduler=scheduler_name,
            rep=f"{repetition}/{len(seeds)}",
            seed=seed,
            backend=report.backend,
            processors=config.num_processors,
            replication=config.replication_rate,
            hit_percent=round(report.hit_percent, 2),
            phases=report.num_phases,
        )
    cell = CellResult(
        scheduler_name=scheduler_name,
        config=config,
        hit_percents=hit_percents,
        dead_end_rates=dead_end_rates,
        mean_depths=mean_depths,
        processors_touched=processors_touched,
        scheduling_times=scheduling_times,
        makespans=makespans,
        scheduled_but_missed=missed,
        regrets=regrets,
    )
    if obs.enabled:
        _record_cell_snapshot(obs, cell, counters_before)
    return cell


def _record_cell_snapshot(obs, cell: CellResult, counters_before) -> None:
    """Store one cell's summary + counter deltas for ``--metrics-out``."""
    counters_after = obs.metrics.snapshot()["counters"]
    deltas = {
        key: value - counters_before.get(key, 0)
        for key, value in counters_after.items()
        if value != counters_before.get(key, 0)
    }
    config = cell.config
    obs.record_cell(
        {
            "scheduler": cell.scheduler_name,
            "backend": config.backend,
            "processors": config.num_processors,
            "replication": config.replication_rate,
            "slack_factor": config.slack_factor,
            "transactions": config.num_transactions,
            "runs": config.runs,
            "mean_hit_percent": cell.mean_hit_percent,
            "mean_dead_end_rate": cell.mean_dead_end_rate,
            "scheduled_but_missed": cell.scheduled_but_missed,
            "counters": deltas,
        }
    )
