"""Shared machinery for the differential harness.

The harness proves the optimized hot path (heap-backed CL, incremental
``CE``, per-phase communication-row cache, best-case feasibility pruning)
is *bit-identical* to the frozen reference in ``repro.core.reference``:
identical schedules, identical guarantee sets, identical search counters,
and identical vertex-expansion traces.  Fingerprints therefore use
``repr(float)`` — the full shortest-roundtrip digits — not approximate
comparisons.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core import Task, make_task
from repro.core import phase as optimized_phase
from repro.core import reference
from repro.core.search import Expander, Expansion, PhaseContext, Vertex
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_workload
from repro.runtime import RunReport
from repro.simulator.runtime import simulate


def simulation_fingerprint(result: RunReport) -> tuple:
    """Everything observable about a run, with floats at full precision.

    Covers the guarantee set (which tasks were scheduled, when, where), the
    per-phase trace (timings and every exported search counter), and the
    final makespan.  Two runs with equal fingerprints made identical
    scheduling decisions at every phase.
    """
    records = tuple(
        (
            task_id,
            str(record.status),
            record.scheduled_phase,
            record.processor,
            repr(record.delivered_at),
            repr(record.started_at),
            repr(record.finished_at),
            repr(record.planned_cost),
        )
        for task_id, record in sorted(result.trace.records.items())
    )
    phases = tuple(
        (
            phase.index,
            repr(phase.start),
            repr(phase.quantum),
            repr(phase.time_used),
            phase.batch_size,
            phase.scheduled,
            phase.expired_before,
            phase.dead_end,
            phase.complete,
            phase.max_depth,
            phase.processors_touched,
            phase.vertices_generated,
        )
        for phase in result.phases
    )
    return (records, phases, repr(result.makespan))


def run_matrix_cell(
    scheduler, num_processors: int, replication: float, seed: int,
    num_transactions: int = 50,
) -> RunReport:
    """One simulated run of ``scheduler`` over a seeded workload cell."""
    config = (
        ExperimentConfig.quick(num_transactions=num_transactions, runs=1)
        .with_processors(num_processors)
        .with_replication(replication)
    )
    _, tasks = build_workload(config, seed)
    return simulate(
        scheduler=scheduler,
        workload=list(tasks),
        num_workers=config.num_processors,
    )


def random_batch(
    rng: random.Random, num_tasks: int, num_processors: int,
    affinity_probability: float = 0.4,
) -> List[Task]:
    """A seeded batch with mixed slack: some tight, some generous deadlines."""
    tasks = []
    for task_id in range(num_tasks):
        processing = rng.uniform(5.0, 30.0)
        slack = rng.uniform(0.5, 6.0)
        affinity = [
            k for k in range(num_processors)
            if rng.random() < affinity_probability
        ]
        if not affinity:
            affinity = [rng.randrange(num_processors)]
        tasks.append(
            make_task(
                task_id,
                processing_time=processing,
                deadline=processing * (1.0 + slack),
                affinity=affinity,
            )
        )
    return tasks


class RecordingExpander(Expander):
    """Wraps an expander and logs the exact expansion trace.

    Logs, per expansion, the identity of the vertex being expanded and the
    multiset of successors it produced (with full-precision values).  The
    *expanded-vertex sequence* must match between implementations; successor
    blocks are compared as sorted tuples because the optimized expander
    returns generation order and lets the CL order best-first, while the
    reference pre-sorts — the same candidates either way.
    """

    def __init__(self, inner: Expander, log: List[tuple]) -> None:
        self.inner = inner
        self.log = log

    def successors(self, vertex: Vertex, ctx: PhaseContext, budget, stats) -> Expansion:
        expansion = self.inner.successors(vertex, ctx, budget, stats)
        block = tuple(
            sorted(
                (child.batch_index, child.processor, repr(child.value))
                for child in expansion.successors
            )
        )
        self.log.append(
            (
                vertex.depth,
                vertex.batch_index,
                vertex.processor,
                block,
                expansion.exhaustive,
            )
        )
        return expansion

    def dead_root(self, tasks, offsets, bound, comm, budget):
        """Forward the certificate; log a certified root as its expansion.

        A root the search would have expanded (``expansions == 1``) is
        logged as the empty, successor-less block the reference's root
        expansion produces, so trace equality still covers dead roots.
        """
        stats = self.inner.dead_root(tasks, offsets, bound, comm, budget)
        if stats is not None and stats.expansions:
            self.log.append((0, -1, -1, (), stats.maximal))
        return stats


def phase_fingerprint(result) -> tuple:
    """A phase's schedule, timings, counters and offsets at full precision."""
    entries = tuple(
        (
            entry.task.task_id,
            entry.processor,
            repr(entry.communication_cost),
            repr(entry.scheduled_end),
        )
        for entry in result.schedule
    )
    return (
        entries,
        repr(result.time_used),
        repr(result.quantum),
        repr(result.phase_start),
        stats_fingerprint(result.stats),
        tuple(repr(offset) for offset in result.initial_offsets),
    )


def run_phase_pair(
    tasks,
    loads,
    quantum,
    comm,
    optimized_expander,
    reference_expander,
    optimized_evaluator,
    reference_evaluator,
    max_candidates=None,
    now=0.0,
    per_vertex_cost=0.05,
    budget_factory=None,
):
    """One phase through the optimized and the reference loop, both logged.

    ``budget_factory`` builds each side's own budget; without it both
    loops build the default virtual-time budget from ``per_vertex_cost``.
    Returns ``(optimized, reference, optimized_log, reference_log)``.
    """
    results, logs = [], []
    for run_phase, expander, evaluator in (
        (optimized_phase.run_phase, optimized_expander, optimized_evaluator),
        (reference.run_phase, reference_expander, reference_evaluator),
    ):
        log: list = []
        results.append(
            run_phase(
                tasks=tasks,
                loads=loads,
                now=now,
                quantum=quantum,
                comm=comm,
                expander=RecordingExpander(expander, log),
                evaluator=evaluator,
                budget=budget_factory() if budget_factory else None,
                per_vertex_cost=per_vertex_cost,
                max_candidates=max_candidates,
            )
        )
        logs.append(log)
    return results[0], results[1], logs[0], logs[1]


def stats_fingerprint(stats) -> Tuple:
    """Every counter of a SearchStats, in declaration order."""
    return (
        stats.vertices_generated,
        stats.expansions,
        stats.backtracks,
        stats.task_probes,
        stats.feasibility_rejections,
        stats.tasks_pruned,
        stats.prefilter_rejected,
        stats.dead_end,
        stats.complete,
        stats.maximal,
        stats.max_depth,
        stats.processors_touched,
    )
