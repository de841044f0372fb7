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
