"""One scheduling phase: glue between quantum, search, and schedule.

A phase (paper Section 4.1) starts at the root of the task space with the
current batch, searches under its allocated quantum, and ends with a feasible
partial or complete schedule ``S_j`` ready for delivery to the working
processors' ready queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .affinity import CommunicationModel
from .batch import in_edf_order
from .cost import VertexEvaluator
from .feasibility import EPSILON, projected_offsets
from .schedule import Schedule
from .search import (
    Expander,
    PhaseContext,
    SearchBudget,
    SearchStats,
    VirtualTimeBudget,
    run_search,
)
from .task import Task

#: Minimum virtual time a phase consumes even if the search ends instantly.
#: Prevents zero-length phases from stalling the on-line runtime's clock.
MIN_PHASE_TIME = 1e-6


@dataclass
class PhaseResult:
    """Everything the runtime needs from a finished scheduling phase."""

    schedule: Schedule
    time_used: float
    quantum: float
    phase_start: float
    stats: SearchStats
    initial_offsets: tuple

    @property
    def phase_end(self) -> float:
        """Delivery time ``t_e = t_s + sigma`` of the produced schedule."""
        return self.phase_start + self.time_used

    @property
    def phase_end_bound(self) -> float:
        """The feasibility bound ``t_s + Q_s(j)`` the phase honoured."""
        return self.phase_start + self.quantum

    def validate(self, comm: CommunicationModel) -> None:
        """Re-check the schedule against the phase's feasibility bound."""
        self.schedule.validate(
            comm,
            dict(enumerate(self.initial_offsets)),
            self.phase_end_bound,
        )


def run_phase(
    tasks: Sequence[Task],
    loads: Sequence[float],
    now: float,
    quantum: float,
    comm: CommunicationModel,
    expander: Expander,
    evaluator: VertexEvaluator,
    budget: Optional[SearchBudget] = None,
    per_vertex_cost: float = 0.1,
    max_candidates: Optional[int] = None,
) -> PhaseResult:
    """Run one scheduling phase over an EDF-ordered snapshot of the batch.

    Parameters mirror the paper: ``tasks`` is ``Batch(j)``, ``loads`` the
    remaining work ``Load_k(j-1)`` of each working processor at phase start,
    ``quantum`` the allocated ``Q_s(j)``.  If no explicit budget is supplied
    a :class:`VirtualTimeBudget` charging ``per_vertex_cost`` per generated
    vertex is used.
    """
    ordered = in_edf_order(tasks)
    # Necessary-condition pre-filter: Figure 4's test at the best possible
    # offset (zero wait, zero communication).  A task failing
    # ``t_s + Q_s + p <= d`` is infeasible on every processor this phase, so
    # no representation needs to probe it; it stays in the batch for the
    # next phase.  That holds because the test carries the expanders' own
    # tolerance, ``EPSILON``.  The scan is part of the per-phase
    # batch-management overhead the scheduler already charges.
    bound = now + quantum
    admitted = [
        t for t in ordered if bound + t.processing_time <= t.deadline + EPSILON
    ]
    offsets = projected_offsets(loads, quantum)
    if budget is None:
        budget = VirtualTimeBudget(quantum=quantum, per_vertex_cost=per_vertex_cost)
    # Most phases cannot extend their root at all; the representation
    # certifies that in one pass and charges what the search would have, so
    # such a phase builds no search state (see repro.core.representations).
    stats = expander.dead_root(admitted, offsets, bound, comm, budget)
    if stats is None:
        ctx = PhaseContext(
            tasks=admitted,
            num_processors=len(loads),
            comm=comm,
            phase_start=now,
            quantum=quantum,
            initial_offsets=offsets,
            evaluator=evaluator,
        )
        outcome = run_search(ctx, expander, budget, max_candidates=max_candidates)
        schedule = outcome.extract_schedule(ctx)
        stats = outcome.stats
        spent = outcome.time_used
    else:
        schedule = Schedule()
        spent = min(budget.used(), quantum)
    stats.prefilter_rejected = len(ordered) - len(admitted)
    return PhaseResult(
        schedule=schedule,
        time_used=min(max(spent, MIN_PHASE_TIME), quantum),
        quantum=quantum,
        phase_start=now,
        stats=stats,
        initial_offsets=offsets,
    )
