"""The phase frame every scheduler runs inside, and the search scheduler.

The on-line runtime (:mod:`repro.simulator.runtime`) is scheduler-agnostic:
it calls ``plan_quantum`` then ``schedule_phase`` on any :class:`Scheduler`.
RT-SADS and D-COLS are thin configurations of :class:`SearchScheduler`; the
one-pass schedulers of :mod:`repro.core.baselines` and :mod:`repro.core.zoo`
share :class:`~repro.core.baselines.ListScheduler`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..observability import Instrumentation, get_instrumentation
from .affinity import CommunicationModel
from .cost import LoadBalancingEvaluator, VertexEvaluator
from .phase import PhaseResult, repeat_horizon, run_phase
from .quantum import QuantumPolicy, SelfAdjustingQuantum
from .search import SearchStats, VirtualTimeBudget
from .task import Task

if TYPE_CHECKING:  # registry imports this module
    from .registry import SchedulerContext

#: Default modelled cost of generating/evaluating one search vertex, in the
#: same time units as task processing times (one tuple-check = 1.0 unit).
DEFAULT_PER_VERTEX_COST = 0.1


def record_phase_metrics(
    obs: Instrumentation,
    name: str,
    stats: SearchStats,
    quantum: float,
    batch_size: int,
) -> None:
    """Accumulate one phase's search counters under ``scheduler=name``.

    Shared by every scheduler implementation so the per-scheduler series in
    a metrics snapshot are comparable regardless of algorithm.
    """
    metrics = obs.metrics
    metrics.counter("scheduler_phases", scheduler=name).inc()
    metrics.counter(
        "scheduler_vertices_generated", scheduler=name
    ).inc(stats.vertices_generated)
    metrics.counter("scheduler_expansions", scheduler=name).inc(stats.expansions)
    metrics.counter("scheduler_backtracks", scheduler=name).inc(stats.backtracks)
    metrics.counter(
        "scheduler_feasibility_rejections", scheduler=name
    ).inc(stats.feasibility_rejections)
    metrics.counter(
        "scheduler_prefilter_rejected", scheduler=name
    ).inc(stats.prefilter_rejected)
    metrics.counter(
        "scheduler_tasks_pruned", scheduler=name
    ).inc(stats.tasks_pruned)
    if stats.dead_end:
        metrics.counter("scheduler_dead_ends", scheduler=name).inc()
    if stats.complete:
        metrics.counter("scheduler_complete_phases", scheduler=name).inc()
    metrics.histogram("scheduler_quantum", scheduler=name).observe(quantum)
    metrics.histogram("scheduler_batch_size", scheduler=name).observe(batch_size)
    metrics.histogram(
        "scheduler_search_depth", scheduler=name
    ).observe(stats.max_depth)


def phase_overhead(
    batch_size: int,
    num_processors: int,
    per_vertex_cost: float,
    overhead_factor: float,
) -> float:
    """Fixed host time one scheduling phase costs outside the search."""
    return overhead_factor * per_vertex_cost * (batch_size + num_processors)


def useful_search_time(
    batch_size: int,
    num_processors: int,
    per_vertex_cost: float,
    cap_factor: float,
) -> float:
    """Upper bound on productively usable scheduling time for one phase."""
    one_pass = per_vertex_cost * num_processors * max(1, batch_size)
    return cap_factor * one_pass


class Scheduler(ABC):
    """The phase frame every dynamic scheduler runs inside.

    The paper compares representations "under the same quantum formula and
    the same feasibility test" (Section 5.2); the frame makes that hold by
    construction for every registered scheduler.  It owns the constructor
    validation, :meth:`plan_quantum`, and :meth:`schedule_phase` — pre-paid
    phase overhead, the virtual-time budget, one observation path (``phase``
    span, per-scheduler metrics, debug line).  A scheduler supplies only
    :meth:`fill_window`, the rule that spends the budget on placements.
    """

    name: str = "scheduler"

    #: Cap on the allocated quantum, as a multiple of the time one full
    #: search pass over the batch costs (``kappa * m * |batch|``).  The
    #: paper's criterion (Figure 3) is an upper bound ("Q_s(j) <=
    #: max[...]"); allocating more time than the search can productively
    #: use only pushes the feasibility bound ``t_s + Q_s`` further out —
    #: making *currently* viable tasks test infeasible — while the extra
    #: time buys no additional search.  The factor leaves room for
    #: backtracking beyond the single greedy pass.
    QUANTUM_CAP_FACTOR = 3.0

    #: Per-phase fixed overhead, as a multiple of ``kappa * (batch + m)``:
    #: every phase the host must merge arrivals into Batch(j), run the
    #: expiry test on each member, read every processor's load, and deliver
    #: the schedule.  This cost exists for every scheduler and prevents the
    #: unrealistic free-restart regime where an algorithm converts dead-end
    #: micro-phases into a zero-cost trickle scheduler.
    PHASE_OVERHEAD_FACTOR = 1.0

    #: None means "use the process default at phase time", so switching the
    #: global instrumentation on affects already-built schedulers; the
    #: runtime injects its own here for the duration of a run so an
    #: explicitly instrumented ``simulate(...)`` reaches the phase loop too.
    instrumentation: Optional[Instrumentation] = None

    def __init__(
        self,
        comm: CommunicationModel,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
    ) -> None:
        if per_vertex_cost <= 0:
            raise ValueError("per_vertex_cost must be positive")
        self.comm = comm
        self.quantum_policy = quantum_policy or SelfAdjustingQuantum()
        self.per_vertex_cost = per_vertex_cost
        self.phase_index = 0

    @classmethod
    def from_context(cls, context: SchedulerContext) -> Scheduler:
        """The registry builder: construct from what the experiment knows."""
        return cls(
            comm=context.comm,
            quantum_policy=context.quantum_policy,
            per_vertex_cost=context.per_vertex_cost,
        )

    def plan_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        """Allocate the scheduling time ``Q_s(j)`` for the next phase."""
        quantum = self.quantum_policy.quantum(batch, loads, now)
        cap = useful_search_time(
            batch_size=len(batch),
            num_processors=len(loads),
            per_vertex_cost=self.per_vertex_cost,
            cap_factor=self.QUANTUM_CAP_FACTOR,
        )
        return min(quantum, max(cap, self.quantum_policy.min_quantum))

    def schedule_phase(
        self,
        batch: Sequence[Task],
        loads: Sequence[float],
        now: float,
        quantum: float,
    ) -> PhaseResult:
        """Run scheduling phase ``j`` and return its feasible schedule."""
        # The phase's total window is the search quantum plus the fixed
        # batch-management overhead; the overhead is pre-consumed so the
        # search only gets `quantum` of it, while the feasibility bound
        # covers the full window (delivery cannot happen before the
        # overhead is paid).
        overhead = phase_overhead(
            batch_size=len(batch),
            num_processors=len(loads),
            per_vertex_cost=self.per_vertex_cost,
            overhead_factor=self.PHASE_OVERHEAD_FACTOR,
        )
        budget = VirtualTimeBudget(
            quantum=quantum + overhead, per_vertex_cost=self.per_vertex_cost
        )
        budget.consume(overhead)
        obs = self.instrumentation or get_instrumentation()
        if not obs.enabled:
            result = self.fill_window(batch, loads, now, budget)
            self.phase_index += 1
            return result
        with obs.span("phase", scheduler=self.name, phase=self.phase_index) as span:
            result = self.fill_window(batch, loads, now, budget)
            span.set(
                t=now,
                quantum=result.quantum,
                time_used=result.time_used,
                batch_size=len(batch),
                scheduled=len(result.schedule),
                vertices_generated=result.stats.vertices_generated,
                expansions=result.stats.expansions,
                backtracks=result.stats.backtracks,
                feasibility_rejections=result.stats.feasibility_rejections,
                prefilter_rejected=result.stats.prefilter_rejected,
                tasks_pruned=result.stats.tasks_pruned,
                dead_end=result.stats.dead_end,
                complete=result.stats.complete,
                max_depth=result.stats.max_depth,
            )
        record_phase_metrics(obs, self.name, result.stats, quantum, len(batch))
        obs.logger.debug(
            "phase complete",
            scheduler=self.name,
            phase=self.phase_index,
            scheduled=len(result.schedule),
            vertices=result.stats.vertices_generated,
        )
        self.phase_index += 1
        return result

    @abstractmethod
    def fill_window(
        self,
        batch: Sequence[Task],
        loads: Sequence[float],
        now: float,
        budget: VirtualTimeBudget,
    ) -> PhaseResult:
        """Spend ``budget`` placing tasks of ``batch``; the one hook.

        ``budget.quantum`` is the whole phase window — ``Q_s(j)`` plus the
        overhead already consumed from it — so the result's ``quantum`` and
        the feasibility bound are ``now + budget.quantum``.
        """

    def quiet_until(
        self,
        batch: Sequence[Task],
        loads_at: Callable[[float], Sequence[float]],
        result: PhaseResult,
        until: float,
    ) -> float:
        """The latest start, at most ``until``, whose phase repeats ``result``.

        ``result`` is this scheduler's last phase, run over ``batch`` with
        loads ``loads_at(result.phase_start)``, and it placed nothing.  A
        repeat is a later phase over the same batch with no event between:
        it has ``result``'s quantum, time, counters and empty schedule, so a
        runtime may record it without running the frame.  The frame does
        not know what :meth:`fill_window` reads, so by default no phase
        repeats (``-inf``).
        """
        return -math.inf

    def reset(self) -> None:
        """Clear inter-phase state before a fresh simulation run."""
        self.phase_index = 0


class SearchScheduler(Scheduler):
    """Search-based dynamic scheduler parameterized by representation.

    Combines a quantum policy (Section 4.2), a search representation
    (Section 3), a vertex evaluator (Section 4.4), and the budget model into
    the phase loop of Section 4.1.  ``expander_factory`` receives the phase
    index and returns that phase's expander; ``max_candidates`` bounds the
    candidate list (the A5 memory ablation assigns it on a built scheduler).
    """

    def __init__(
        self,
        comm: CommunicationModel,
        expander_factory,
        evaluator: Optional[VertexEvaluator] = None,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        max_candidates: Optional[int] = 100_000,
        name: str = "search-scheduler",
        instrumentation: Optional[Instrumentation] = None,
        phase_runner=None,
    ) -> None:
        super().__init__(comm, quantum_policy, per_vertex_cost)
        self.expander_factory = expander_factory
        self.evaluator = evaluator or LoadBalancingEvaluator()
        self.max_candidates = max_candidates
        self.name = name
        self.instrumentation = instrumentation
        # The differential harness swaps in the frozen reference phase loop
        # (repro.core.reference.run_phase) here; production schedulers keep
        # the optimized default.
        self._phase_runner = phase_runner if phase_runner is not None else run_phase

    @classmethod
    def from_context(cls, context: SchedulerContext) -> SearchScheduler:
        """As the frame's, plus the evaluator override a search honours."""
        return cls(
            comm=context.comm,
            evaluator=context.evaluator,
            quantum_policy=context.quantum_policy,
            per_vertex_cost=context.per_vertex_cost,
        )

    def fill_window(self, batch, loads, now, budget):
        """Search the task space of ``batch`` until the budget runs out."""
        return self._phase_runner(
            tasks=batch,
            loads=loads,
            now=now,
            quantum=budget.quantum,
            comm=self.comm,
            expander=self.expander_factory(self.phase_index),
            evaluator=self.evaluator,
            budget=budget,
            per_vertex_cost=self.per_vertex_cost,
            max_candidates=self.max_candidates,
        )

    def quiet_until(self, batch, loads_at, result, until):
        """As the frame's, for a dead root the expander certified.

        A repeat needs the same quantum at its start, the same admitted set
        and a root still dead (:func:`~repro.core.phase.repeat_horizon`).
        Only the default phase loop is known to certify, and only an
        expander that is one object across phases keeps its fact.
        """
        expander = self.expander_factory(self.phase_index)
        if (
            self._phase_runner is not run_phase
            or expander is not self.expander_factory(self.phase_index - 1)
        ):
            return -math.inf

        def quantum_at(start: float) -> float:
            """The quantum a phase over ``batch`` at ``start`` would get."""
            return self.plan_quantum(batch, loads_at(start), start)

        now = result.phase_start
        quantum = quantum_at(now)
        low = result.phase_end
        if quantum_at(low) != quantum:
            return -math.inf
        high = min(
            until,
            repeat_horizon(
                batch, loads_at(now), result, self.comm, expander,
                self.per_vertex_cost,
            ),
        )
        # Between events no term of a policy rises (QuantumPolicy), so equal
        # quanta at both ends hold between them.  Where they differ, only
        # the next phase is known to repeat: the quantum changes within a
        # run too rarely to search for where.
        if high < low or quantum_at(high) == quantum:
            return high
        return low

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Class, display name, evaluator and quantum policy."""
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"evaluator={self.evaluator.name}, "
            f"quantum={self.quantum_policy.name})"
        )
