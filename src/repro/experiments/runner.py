"""Experiment runner: build everything for one run, name what a cell is.

One *cell* is (config, scheduler): ``config.runs`` repetitions with
distinct seeds, aggregated into a :class:`CellResult` with the paper's
statistics (mean, 99% CI).  This module builds what one repetition needs
— the database, the transaction workload, the scheduler — and runs it
(:func:`run_once`); the loop over repetitions lives in one place, the
cell engine :func:`repro.experiments.sweep.run_grid`, of which
:func:`run_cell` is the one-spec call.

*Where* each repetition runs is the config's (or the caller's) choice:
:func:`run_once` dispatches through the
:class:`~repro.runtime.backend.ExecutionBackend` registry, so the same
cell definition executes on the virtual-clock simulator or the live TCP
cluster and comes back as the same
:class:`~repro.runtime.report.RunReport`.  *How* a repetition departs
from its config — an ablation's quantum policy, an extension's workload
— is a fact of the backend instance it is given
(:class:`~repro.runtime.sim.SimBackend`'s variants), which is where
:func:`build_scheduler`'s two optional arguments come from; nothing in
between carries them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sized, Tuple, Union

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
from ..runtime.backend import ExecutionBackend, get_backend
from ..runtime.report import RunReport
from ..workload.transactions import SeededDraw, draw_workload
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


def build_workload(
    config: ExperimentConfig,
    seed: int,
    draw: Optional[SeededDraw] = None,
) -> Tuple[SeededDraw, Tuple[Task, ...]]:
    """The tasks of one repetition, and the seed's draw they came from.

    The seed half (:func:`~repro.workload.transactions.draw_workload`:
    rows, index, transactions, estimates, deadlines) runs here unless the
    caller passes the seed's ``draw`` already made; the placement half —
    the only step that reads ``num_processors`` and ``replication_rate`` —
    always runs.  The tasks are those
    :func:`~repro.workload.transactions.build_seeded_workload` returns.
    """
    if draw is None:
        draw, _database, _transactions = draw_workload(config, seed)
    _placement, tasks = draw.place(
        config.num_processors, config.replication_rate
    )
    return draw, tasks


#: Tasks and drawn transactions the process-wide workload memo may retain;
#: the latest entry is kept whatever its size.  Large enough for the
#: draws and task lists of one quick-scale figure cell's three seeds, or
#: one paper-scale draw and its task list, to stay resident while the
#: other scheduler of the cell, the oracle and the next ``m`` or ``R``
#: ask for them again; small enough (about a megabyte of ``Task``
#: objects) that a sweep's peak memory stays that of its largest run.
WORKLOAD_MEMO_TASKS = 2048


class WorkloadMemo:
    """Seeded task lists and seed draws already built, least recently used
    first.

    A generated workload is a pure function of ``(config.workload_key(),
    seed)``: the schedulers of a figure cell, every domain count of a shard
    curve and the schedulability oracle all ask for the same one.  Hits
    return the same immutable tuple of (frozen) tasks, never the database.
    A miss places the seed's :class:`SeededDraw`, itself an entry keyed on
    ``(config.draw_key(), seed)``, so the points of an ``m``- or
    ``R``-sweep draw a seed's rows and transactions once.  Both kinds of
    entry count their transactions against one budget.  One lock covers
    lookup, build and eviction, so threads sharing a backend build each
    workload once.
    """

    def __init__(self, max_tasks: int = WORKLOAD_MEMO_TASKS) -> None:
        self.max_tasks = max_tasks
        self._lock = threading.Lock()
        # A draw key is two fields shorter than a workload key, so the
        # two kinds of entry never share a key.
        self._entries: "OrderedDict[tuple, Sized]" = OrderedDict()

    def tasks(self, config: ExperimentConfig, seed: int) -> Tuple[Task, ...]:
        """The tasks of ``(config, seed)``, built on the first request."""
        key = (config.workload_key(), seed)
        with self._lock:
            tasks = self._get(key)
            if tasks is None:
                draw_key = (config.draw_key(), seed)
                draw, tasks = build_workload(
                    config, seed, self._get(draw_key)
                )
                self._keep(draw_key, draw)
                self._keep(key, tasks)
            return tasks

    def _get(self, key: tuple):
        """The entry under ``key``, now the most recently used, or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _keep(self, key: tuple, entry: Sized) -> None:
        """Store ``entry`` as the most recent; evict the oldest over budget."""
        self._entries[key] = entry
        retained = self.retained_tasks()
        while retained > self.max_tasks and len(self._entries) > 1:
            _, oldest = self._entries.popitem(last=False)
            retained -= len(oldest)

    def retained_tasks(self) -> int:
        """How many tasks and drawn transactions the memo keeps alive."""
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
    validate_phases: bool = False,
    backend: Union[str, ExecutionBackend, None] = None,
) -> RunReport:
    """One full run of one cell with one seed on one backend.

    ``backend`` (a registry name or a pre-built
    :class:`~repro.runtime.backend.ExecutionBackend` instance — a pinned
    live port, a :class:`~repro.runtime.sim.SimBackend` variant) overrides
    ``config.backend``; the default follows the config, so a plain
    ``run_once(config, name, seed)`` keeps running on the simulator.
    """
    chosen = get_backend(backend if backend is not None else config.backend)
    report = chosen.run_once(
        config, scheduler_name, seed, validate_phases=validate_phases
    )
    if not report.regret:
        report.regret = _regret_for(report, config, seed, chosen)
    return report


def _regret_for(
    report: RunReport,
    config: ExperimentConfig,
    seed: int,
    backend: ExecutionBackend,
) -> dict:
    """Oracle verdict + regret for one finished run.

    The oracle analyses the run's workload offline — the very task list a
    simulated run used (:func:`workload_tasks`), and an exact rebuild
    whenever the backend derives its task set deterministically from
    ``(config, seed)`` (:attr:`ExecutionBackend.seeded_workload`; the live
    cluster mirrors the simulator's generator, and partitioning never
    changes the task set).  Backends that mint tasks at request time (the
    streaming service) and simulator variants that replace the workload or
    the execution model get an explicit ``unknown`` placeholder instead,
    keeping the exported schema identical everywhere.
    """
    if not backend.seeded_workload:
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
    #: Virtual time reclaimed by early completions, per repetition.
    reclaimed_times: List[float] = field(default_factory=list)
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
        """The paper's 99 % confidence interval on the hit ratio (E5), or
        None below 2 runs."""
        if len(self.hit_percents) < 2:
            return None
        return confidence_interval(self.hit_percents)

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


def run_cell(config: ExperimentConfig, scheduler_name: str) -> CellResult:
    """Run every repetition of one cell and aggregate the paper's metrics.

    The one-spec call of the cell engine
    (:func:`repro.experiments.sweep.run_grid`): with ``config.jobs > 1``
    the repetitions fan across worker processes; the results are
    bit-identical either way.  Not thread-safe
    under instrumentation (the metrics registry is unlocked); virtual
    quanta throughout.
    """
    from .sweep import run_grid  # the engine imports this module

    return run_grid([(config, scheduler_name)]).cells[0]
