"""Reproduction of every figure and measurement in the paper's evaluation.

Each function regenerates one experiment (see DESIGN.md Section 4):

* :func:`figure5`  — deadline scalability vs processors (paper Figure 5)
* :func:`figure6`  — deadline compliance vs replication rate (paper Figure 6)
* :func:`laxity_sweep` — the SF in {1, 2, 3} sweep the text describes (E3)
* :func:`overhead_table` — the scheduling-cost measurement (E4), including
  the wall-clock distortion study motivating the virtual budget
* :func:`ablation_quantum`, :func:`ablation_cost`,
  :func:`ablation_representation` — design-choice ablations A1-A3

All return result objects carrying a :class:`~repro.metrics.reporting.FigureData`
(or table rows) plus a ``render()`` method producing the printable report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.affinity import UniformCommunicationModel
from ..core.cost import (
    EarliestFinishEvaluator,
    FifoEvaluator,
    LoadBalancingEvaluator,
    MinSlackEvaluator,
)
from ..core.quantum import (
    FixedQuantum,
    LoadOnlyQuantum,
    SelfAdjustingQuantum,
    SlackOnlyQuantum,
)
from ..core.representations import AssignmentOrientedExpander
from ..core.search import PhaseContext, WallClockBudget, run_search
from ..core.task import edf_key
from ..metrics.reporting import (
    FigureData,
    ascii_chart,
    format_figure,
    format_table,
)
from ..metrics.stats import SIGNIFICANCE_LEVEL, difference_of_means, mean
from ..runtime.sim import SimBackend
from .config import (
    PROCESSOR_SWEEP,
    REPLICATION_SWEEP,
    SLACK_FACTOR_SWEEP,
    ExperimentConfig,
)
from .runner import CellResult, run_cell, run_once, workload_tasks
from .sweep import run_grid

#: Display names used in figures, matching the paper's legends.
DISPLAY_NAMES = {
    "rtsads": "RT-SADS",
    "dcols": "D-COLS",
    "greedy_edf": "Greedy-EDF",
    "myopic": "Myopic",
    "random": "Random",
    "edf": "Global-EDF",
    "partitioned-edf": "Partitioned-EDF",
    "candidate-sort": "Candidate-Sort",
}

#: The paper's head-to-head comparison, used whenever a config does not
#: pin a scheduler of its own.
PAPER_SCHEDULERS = ("rtsads", "dcols")


def _pick_schedulers(
    config: ExperimentConfig, schedulers: Sequence[str] = PAPER_SCHEDULERS
) -> Sequence[str]:
    """``config.scheduler`` pins a comparison to one scheduler; otherwise
    the paper's pair (or figure 5's wider set) stands."""
    if config.scheduler is not None:
        return (config.scheduler,)
    return schedulers


@dataclass
class SweepResult:
    """A reproduced figure: the series plus per-cell aggregates."""

    figure: FigureData
    cells: Dict[Tuple[str, float], CellResult]
    significance: List[str] = field(default_factory=list)

    def render(self, chart: bool = True) -> str:
        """Printable report: table, optional ASCII chart, significance."""
        parts = [format_figure(self.figure)]
        if chart:
            parts.append("")
            parts.append(ascii_chart(self.figure))
        if self.significance:
            parts.append("")
            parts.extend(self.significance)
        return "\n".join(parts)


def _run_sweep(
    title: str,
    x_label: str,
    x_values: Sequence[float],
    series: Sequence[Tuple[str, str, Sequence[tuple]]],
    notes: Sequence[str] = (),
) -> SweepResult:
    """The one way a figure runs: specs -> grid -> ``cells[(key, x)]`` -> series.

    Each ``series`` row is ``(key in SweepResult.cells, legend label, one
    run_grid spec per x value)``.  The *entire* figure goes to the cell
    engine (:func:`repro.experiments.sweep.run_grid`) as one batch, so with
    ``jobs > 1`` a single worker pool covers every (series, x, seed) cell.
    Cells land in deterministic (series-major, x-minor, seed-innermost)
    order whatever the worker count or cache state, so the figure is
    byte-identical across them.
    """
    figure = FigureData(
        title=title, x_label=x_label, x_values=list(x_values), notes=list(notes)
    )
    specs = [spec for _, _, row in series for spec in row]
    grid = iter(run_grid(specs).cells)
    cells = {(key, x): next(grid) for key, _, _ in series for x in x_values}
    for key, label, _ in series:
        figure.add_series(
            label, [cells[(key, x)].mean_hit_percent for x in x_values]
        )
    return SweepResult(figure=figure, cells=cells)


@dataclass
class AblationResult:
    """A table of variants of one design choice."""

    title: str
    headers: List[str]
    rows: List[List[object]]

    def render(self) -> str:
        """Title plus the variants table, formatted for a terminal."""
        return "\n".join([self.title, format_table(self.headers, self.rows)])


def _hit_percent(cell: CellResult) -> float:
    return cell.mean_hit_percent


def _run_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Tuple[object, Sequence[tuple]]],
    columns: Sequence[Callable[[CellResult], object]] = (_hit_percent,),
) -> AblationResult:
    """The one way a table runs: rows of specs -> grid -> rows of values.

    Each ``rows`` entry is ``(label, [run_grid spec, ...])`` and renders as
    the label followed by every ``columns`` value of each of its cells, in
    spec order.  Like a figure, the whole table is one
    :func:`~repro.experiments.sweep.run_grid` batch.  A spec's third
    element — the :class:`~repro.runtime.sim.SimBackend` variant its
    repetitions run on — is asked first whether it can honour the config,
    so a table that varies the simulator refuses ``--backend cluster`` (a
    ``ValueError``, the CLI's usage error) before any cell runs.
    """
    specs = [spec for _, row in rows for spec in row]
    for config, _, *variant in specs:
        if variant:
            variant[0].require(config)
    grid = iter(run_grid(specs).cells)
    return AblationResult(
        title=title,
        headers=list(headers),
        rows=[
            [label]
            + [
                column(cell)
                for cell in islice(grid, len(row))
                for column in columns
            ]
            for label, row in rows
        ],
    )


def _scheduler_table(
    title: str,
    x_label: str,
    config: ExperimentConfig,
    variants: Sequence[Tuple[object, SimBackend]],
) -> AblationResult:
    """A comparison table: a row per variant, a hit-% column per scheduler."""
    schedulers = _pick_schedulers(config)
    return _run_table(
        title,
        [x_label] + [DISPLAY_NAMES.get(n, n) + " hit %" for n in schedulers],
        [
            (label, [(config, name, backend) for name in schedulers])
            for label, backend in variants
        ],
    )


def _mean_differences(
    result: SweepResult, first: str, second: str, versus: str = ""
) -> List[str]:
    """One difference-of-means line per x: series ``first`` minus ``second``."""
    lines = []
    for x in result.figure.x_values:
        test = difference_of_means(
            result.cells[(first, x)].hit_percents,
            result.cells[(second, x)].hit_percents,
        )
        verdict = "significant" if test.significant else "not significant"
        lines.append(
            f"{result.figure.x_label}={x}: {versus}mean diff "
            f"{test.mean_difference:+.2f} pts, p={test.p_value:.4f} "
            f"({verdict} at {SIGNIFICANCE_LEVEL})"
        )
    return lines


def _scheduler_sweep(
    title: str,
    x_label: str,
    x_values: Sequence[float],
    configs: Sequence[ExperimentConfig],
    schedulers: Sequence[str],
    notes: Sequence[str] = (),
) -> SweepResult:
    """A paper figure: one series per scheduler, the first two compared."""
    series = [
        (name, DISPLAY_NAMES.get(name, name), [(c, name) for c in configs])
        for name in schedulers
    ]
    result = _run_sweep(title, x_label, x_values, series, notes)
    if len(schedulers) >= 2 and configs and configs[0].runs >= 2:
        result.significance = _mean_differences(
            result, schedulers[0], schedulers[1]
        )
    return result


def figure5(
    config: Optional[ExperimentConfig] = None,
    processors: Sequence[int] = PROCESSOR_SWEEP,
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
) -> SweepResult:
    """Paper Figure 5: deadline scalability (R=30%, SF=1, m=2..10).

    ``schedulers`` widens the comparison beyond the paper's pair
    (``examples/scalability_study.py`` adds the list baselines).
    """
    config = config or ExperimentConfig.paper()
    schedulers = _pick_schedulers(config, schedulers)
    configs = [config.with_processors(m) for m in processors]
    return _scheduler_sweep(
        title=(
            "Figure 5 - Deadline scalability "
            f"(R={config.replication_rate:.0%}, SF={config.slack_factor:g})"
        ),
        x_label="processors",
        x_values=list(processors),
        configs=configs,
        schedulers=schedulers,
        notes=[
            "y values are mean deadline hit ratios (%) over "
            f"{config.runs} runs",
        ],
    )


def figure6(
    config: Optional[ExperimentConfig] = None,
    replication_rates: Sequence[float] = REPLICATION_SWEEP,
) -> SweepResult:
    """Paper Figure 6: compliance vs replication rate (P=10, SF=1)."""
    config = config or ExperimentConfig.paper()
    schedulers = _pick_schedulers(config)
    configs = [config.with_replication(r) for r in replication_rates]
    return _scheduler_sweep(
        title=(
            "Figure 6 - Deadline compliance vs replication rate "
            f"(P={config.num_processors}, SF={config.slack_factor:g})"
        ),
        x_label="replication",
        x_values=list(replication_rates),
        configs=configs,
        schedulers=schedulers,
        notes=[
            "y values are mean deadline hit ratios (%) over "
            f"{config.runs} runs",
        ],
    )


#: Shard-curve axes: the processor sweep extends past the paper's m=10
#: into the regime where one master's serialized search latency flattens
#: the compliance curve, and the domain counts compared against it.
SHARD_PROCESSOR_SWEEP: Tuple[int, ...] = (4, 8, 16, 24)
SHARD_DOMAIN_SWEEP: Tuple[int, ...] = (1, 2, 4)


def shard_curve(
    config: Optional[ExperimentConfig] = None,
    processors: Sequence[int] = SHARD_PROCESSOR_SWEEP,
    domains: Sequence[int] = SHARD_DOMAIN_SWEEP,
) -> SweepResult:
    """Compliance vs m with the fleet split into k scheduling domains.

    One series per domain count, same scheduler everywhere: the figure
    isolates the *scheduling architecture* (how many concurrent masters)
    exactly the way Figure 5 isolates the algorithm.  The default config
    raises the per-vertex cost and transaction count until the single
    master's search latency dominates — its curve flattens and then
    collapses as m grows (every extra worker lengthens each phase's
    search, delaying every delivery), while k=4 domains keep scaling
    because each master searches ~n/k tasks over m/k workers and the four
    searches overlap on the shared clock, with inter-domain migration
    patching the partition's load imbalances.
    """
    config = config or ExperimentConfig.quick(
        num_transactions=500, per_vertex_cost=0.1
    )
    scheduler = config.scheduler or "rtsads"
    domains = sorted(set(int(k) for k in domains))
    if max(domains) > min(processors):
        raise ValueError(
            f"domains={max(domains)} cannot partition the smallest "
            f"machine in the sweep (m={min(processors)})"
        )
    result = _run_sweep(
        title=(
            "Shard curve - Deadline compliance vs processors by domain "
            f"count ({DISPLAY_NAMES.get(scheduler, scheduler)}, "
            f"SF={config.slack_factor:g})"
        ),
        x_label="processors",
        x_values=processors,
        series=[
            (
                f"domains={k}",
                f"domains={k}",
                [
                    (config.with_processors(m).with_domains(k), scheduler)
                    for m in processors
                ],
            )
            for k in domains
        ],
        notes=[
            "y values are mean deadline hit ratios (%) over "
            f"{config.runs} runs",
            f"partition policy: {config.partition_policy}",
        ],
    )
    if len(domains) >= 2 and config.runs >= 2:
        low, high = f"domains={domains[0]}", f"domains={domains[-1]}"
        result.significance = _mean_differences(
            result, high, low, f"{high} vs {low} "
        )
    return result


@dataclass
class LaxitySweepResult:
    """E3: one Figure-5-style sweep per slack factor."""

    sweeps: Dict[float, SweepResult]

    def render(self) -> str:
        """One chartless sweep report per slack factor, ascending SF."""
        parts = []
        for slack_factor in sorted(self.sweeps):
            parts.append(self.sweeps[slack_factor].render(chart=False))
            parts.append("")
        return "\n".join(parts).rstrip()


def laxity_sweep(
    config: Optional[ExperimentConfig] = None,
    processors: Sequence[int] = PROCESSOR_SWEEP,
) -> LaxitySweepResult:
    """Section 5.1's "SF values range from 1 to 3" across the m sweep."""
    config = config or ExperimentConfig.paper()
    schedulers = _pick_schedulers(config)
    sweeps = {}
    for slack_factor in SLACK_FACTOR_SWEEP:
        sf_config = config.with_slack_factor(slack_factor)
        configs = [sf_config.with_processors(m) for m in processors]
        sweeps[slack_factor] = _scheduler_sweep(
            title=(
                f"Laxity sweep - SF={slack_factor:g} "
                f"(R={config.replication_rate:.0%})"
            ),
            x_label="processors",
            x_values=list(processors),
            configs=configs,
            schedulers=schedulers,
        )
    return LaxitySweepResult(sweeps=sweeps)


#: Assumed wall-clock duration of one tuple-checking iteration (= 1 virtual
#: time unit) on period hardware, used only to express the CPython
#: distortion in comparable terms.  A mid-90s i860 node compares ~10 integer
#: attribute values with memory traffic in roughly a microsecond.
ASSUMED_CHECK_SECONDS = 1e-6


@dataclass
class OverheadResult:
    """E4: scheduling-cost measurement plus the CPython distortion study."""

    rows: List[List[object]]
    measured_per_vertex_seconds: float
    modelled_per_vertex_cost: float

    @property
    def distortion_factor(self) -> float:
        """How much CPython inflates per-vertex cost vs the modelled host.

        The model says a vertex costs ``kappa`` checking iterations; under
        the assumed iteration duration that is ``kappa *
        ASSUMED_CHECK_SECONDS`` wall-clock.  CPython's measured per-vertex
        time divided by that is the inflation a wall-clock quantum would
        suffer — the timing distortion the virtual budget removes.
        """
        modelled_seconds = self.modelled_per_vertex_cost * ASSUMED_CHECK_SECONDS
        if modelled_seconds <= 0:
            return float("nan")
        return self.measured_per_vertex_seconds / modelled_seconds

    def render(self) -> str:
        """The E4 cost table plus the wall-clock distortion summary."""
        headers = [
            "algorithm",
            "phases",
            "mean Q_s",
            "mean used",
            "total sched time",
            "sched/makespan %",
        ]
        table = format_table(headers, self.rows)
        return "\n".join(
            [
                "E4 - Scheduling cost (virtual time units)",
                table,
                "",
                "Wall-clock distortion study (why the budget is virtual):",
                f"  measured CPython cost per search vertex: "
                f"{self.measured_per_vertex_seconds * 1e6:.1f} us",
                f"  modelled per-vertex cost: "
                f"{self.modelled_per_vertex_cost:g} checking iterations "
                f"(~{self.modelled_per_vertex_cost * ASSUMED_CHECK_SECONDS * 1e6:.3f} us "
                "at 1 us per iteration on period hardware)",
                f"  => wall-clock quanta in CPython would inflate per-vertex "
                f"scheduling cost ~{self.distortion_factor:,.0f}x relative to "
                "the modelled host — the interpreter distortion the virtual "
                "budget removes.",
            ]
        )


def _measure_wall_clock_vertex_cost(config: ExperimentConfig) -> float:
    """Seconds per vertex when a real phase runs under a 50 ms wall budget."""
    tasks = workload_tasks(config, config.base_seed)
    comm = UniformCommunicationModel(config.remote_cost)
    ordered = sorted(tasks, key=edf_key)
    ctx = PhaseContext(
        tasks=ordered,
        num_processors=config.num_processors,
        comm=comm,
        phase_start=0.0,
        quantum=float("inf"),
        initial_offsets=(0.0,) * config.num_processors,
        evaluator=LoadBalancingEvaluator(),
    )
    budget = WallClockBudget(quantum_seconds=0.05)
    start = time.perf_counter()
    run_search(ctx, AssignmentOrientedExpander(), budget)
    elapsed = time.perf_counter() - start
    vertices = max(1, budget.vertices_charged)
    return elapsed / vertices


def overhead_table(
    config: Optional[ExperimentConfig] = None,
) -> OverheadResult:
    """E4: per-phase scheduling time under the virtual budget, both sides."""
    config = config or ExperimentConfig.paper()
    rows: List[List[object]] = []
    for name in PAPER_SCHEDULERS:
        cell = run_cell(config, name)
        total_sched = sum(cell.scheduling_times) / len(cell.scheduling_times)
        makespan = sum(cell.makespans) / len(cell.makespans)
        # Per-phase means come from a single representative run.
        result = run_once(config, name, config.base_seed)
        phases = result.phases
        mean_quantum = (
            sum(p.quantum for p in phases) / len(phases) if phases else 0.0
        )
        mean_used = (
            sum(p.time_used for p in phases) / len(phases) if phases else 0.0
        )
        rows.append(
            [
                DISPLAY_NAMES.get(name, name),
                len(phases),
                mean_quantum,
                mean_used,
                total_sched,
                100.0 * total_sched / makespan if makespan else 0.0,
            ]
        )
    return OverheadResult(
        rows=rows,
        measured_per_vertex_seconds=_measure_wall_clock_vertex_cost(config),
        modelled_per_vertex_cost=config.per_vertex_cost,
    )


def ablation_quantum(
    config: Optional[ExperimentConfig] = None,
) -> AblationResult:
    """A1: the self-adjusting quantum vs fixed and single-term policies."""
    config = config or ExperimentConfig.paper()
    # Three fixed strawmen: "tiny" cannot complete even one task probe per
    # phase, "medium" is a hand-tuned sweet spot, "long" pushes the
    # feasibility bound so far out that waiting tasks expire.  The paper's
    # criterion needs no tuning and must beat both degenerate extremes.
    tiny_fixed = 10 * config.per_vertex_cost
    medium_fixed = max(2.0, 100 * config.per_vertex_cost)
    long_fixed = 2.0 * config.scan_cost
    policies = [
        ("self-adjusting (paper)", SelfAdjustingQuantum()),
        ("slack-only", SlackOnlyQuantum()),
        ("load-only", LoadOnlyQuantum()),
        (f"fixed tiny ({tiny_fixed:g})", FixedQuantum(tiny_fixed)),
        (f"fixed medium ({medium_fixed:g})", FixedQuantum(medium_fixed)),
        (f"fixed long ({long_fixed:g})", FixedQuantum(long_fixed)),
    ]
    return _run_table(
        title=(
            "A1 - Quantum allocation policies (RT-SADS, "
            f"P={config.num_processors}, R={config.replication_rate:.0%}, "
            f"SF={config.slack_factor:g})"
        ),
        headers=[
            "policy",
            "hit ratio %",
            "dead-end %",
            "mean depth",
            "total sched time",
        ],
        rows=[
            (label, [(config, "rtsads", SimBackend(quantum_policy=policy))])
            for label, policy in policies
        ],
        columns=[
            _hit_percent,
            lambda cell: cell.mean_dead_end_rate * 100,
            lambda cell: cell.mean_depth,
            lambda cell: mean(cell.scheduling_times),
        ],
    )


def ablation_cost(
    config: Optional[ExperimentConfig] = None,
) -> AblationResult:
    """A2: cost function / heuristic choices for RT-SADS."""
    config = config or ExperimentConfig.paper()
    evaluators = [
        ("load_balancing", LoadBalancingEvaluator()),
        ("earliest_finish", EarliestFinishEvaluator()),
        ("min_slack", MinSlackEvaluator()),
        ("fifo", FifoEvaluator()),
    ]
    return _run_table(
        title=(
            "A2 - Vertex evaluation functions (RT-SADS, "
            f"P={config.num_processors}, R={config.replication_rate:.0%})"
        ),
        headers=["evaluator", "hit ratio %", "procs touched", "mean depth"],
        rows=[
            (name, [(config, "rtsads", SimBackend(evaluator=evaluator))])
            for name, evaluator in evaluators
        ],
        columns=[
            _hit_percent,
            lambda cell: cell.mean_processors_touched,
            lambda cell: cell.mean_depth,
        ],
    )


def ablation_memory(
    config: Optional[ExperimentConfig] = None,
    cl_bounds: Sequence[Optional[int]] = (8, 64, 512, 4096, None),
) -> AblationResult:
    """A5: bounded scheduling memory (candidate-list size).

    The paper stores every feasible successor in the candidate list CL; a
    real host has finite scheduling memory, so our CL drops its oldest
    (shallowest) candidates beyond a bound.  This sweep shows how small the
    CL can get before schedule quality suffers — in practice depth-first
    search rarely revisits old candidates, so tight bounds are nearly free.
    """
    config = config or ExperimentConfig.paper()
    return _run_table(
        title=(
            "A5 - Candidate-list memory bound (RT-SADS, "
            f"P={config.num_processors}, R={config.replication_rate:.0%})"
        ),
        headers=["CL bound", "hit ratio %"],
        rows=[
            (
                "unbounded" if bound is None else str(bound),
                [(config, "rtsads", SimBackend(max_candidates=bound))],
            )
            for bound in cl_bounds
        ],
    )


def ablation_representation(
    config: Optional[ExperimentConfig] = None,
) -> AblationResult:
    """A3: representation-only comparison, validating Section 3's conjecture.

    Everything else — quantum policy, evaluator, per-vertex cost — is held
    identical; the table shows the dead-end rate, search depth, and number
    of processors each representation manages to use per phase.
    """
    config = config or ExperimentConfig.paper()
    return _run_table(
        title=(
            "A3 - Representation only (identical quantum/evaluator, "
            f"P={config.num_processors}, R={config.replication_rate:.0%})"
        ),
        headers=[
            "representation",
            "hit ratio %",
            "dead-end %",
            "mean depth",
            "procs touched/phase",
        ],
        rows=[
            (DISPLAY_NAMES[name], [(config, name)])
            for name in PAPER_SCHEDULERS
        ],
        columns=[
            _hit_percent,
            lambda cell: cell.mean_dead_end_rate * 100,
            lambda cell: cell.mean_depth,
            lambda cell: cell.mean_processors_touched,
        ],
    )
