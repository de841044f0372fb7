"""The two search representations of the paper (Figures 1 and 2).

* **Assignment-oriented** (Figure 2, used by RT-SADS): each level of the tree
  selects a *task* and branches on the *processor* it is assigned to.  All
  processors are candidates at every level, so backtracking can re-route a
  task to any processor — the property the paper credits for scalability.

* **Sequence-oriented** (Figure 1, used by D-COLS): each level selects a
  *processor* — in round-robin order — and branches on the *task* assigned to
  it.  Backtracking can only swap which task runs on the level's processor;
  when no remaining task is feasible on it, the branch dies, which is the
  dead-end mechanism behind the paper's scalability conjecture.

Both expanders charge the search budget for every candidate they generate
(feasible or not), keeping the comparison honest: the two algorithms receive
identical quanta and pay identical per-vertex costs.

The expansion loops here are the scheduler's hot path — they bound how many
vertices a quantum can explore, and therefore how much schedule the paper's
algorithms deliver per phase.  They are written against the frozen reference
in :mod:`repro.core.reference` and must stay *schedule-identical* to it: the
per-phase communication-row cache, the best-case feasibility prune, and the
hoisted feasibility comparison change how fast candidates are produced, never
which candidates are produced, charged, or counted.  The differential harness
under ``tests/differential/`` enforces this.

**Dead roots.**  Most phases place nothing: at the projected offsets every
admitted task fails Figure 4's ``t_c + RQ_s(j) + se_lk <= d_l`` on every
processor the root expansion probes.  Each expander's ``dead_root`` decides
that in one pass over the tasks its ``successors`` would probe at the root,
with the same float expression, before :func:`repro.core.phase.run_phase`
builds a context, a root vertex or a candidate list.  A certified root is
charged to the budget exactly as the search would have charged it — the
modelled cost per vertex is unchanged, only the host work goes — and the
counters are the ones :func:`repro.core.search.run_search` would have
returned.  The first task that fits ends the certificate with the budget
untouched, and the ordinary search runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .affinity import CommunicationModel
from .feasibility import EPSILON
from .search import (
    Expander,
    Expansion,
    PhaseContext,
    SearchBudget,
    SearchStats,
    Vertex,
)
from .task import Task


def _unscheduled_indices(vertex: Vertex, n: int):
    """Batch indices (EDF order) not yet on the vertex's partial path."""
    mask = vertex.scheduled_mask
    for index in range(n):
        if not (mask >> index) & 1:
            yield index


def _unexpanded_root(n: int, budget: SearchBudget) -> Optional[SearchStats]:
    """The stats of a search that stops before expanding its root, if it does.

    :func:`~repro.core.search.run_search` tests the budget before its first
    pop, and the root of an empty batch is already a complete schedule.
    """
    if budget.exhausted():
        return SearchStats()
    if not n:
        return SearchStats(complete=True)
    return None


def _failed_root(
    stats: SearchStats, budget: SearchBudget, exhaustive: bool
) -> SearchStats:
    """Finish the stats of a root expansion that produced no successor.

    An exhaustive expansion ends the search at a maximal (empty) schedule.
    Any other is a backtrack to an empty candidate list, which the loop
    reports as a dead end unless the budget ran out first.
    """
    stats.expansions = 1
    if exhaustive:
        stats.maximal = True
    else:
        stats.backtracks = 1
        stats.dead_end = not budget.exhausted()
    return stats


class AssignmentOrientedExpander(Expander):
    """RT-SADS's representation: pick a task, branch on processors.

    Task selection follows EDF order over the batch; if the earliest-deadline
    unscheduled task has no feasible processor it is skipped (it stays in the
    batch for the next phase) and the next task is probed.  Every probe
    evaluates all processors and charges the budget for each generated
    candidate.

    Because per-processor offsets never decrease along a path, a task that is
    infeasible on *every* processor at some vertex stays infeasible in the
    whole subtree below it.  Such tasks are therefore marked in the successor
    vertices' masks so deeper levels do not re-probe them — the discovery is
    paid for once (its vertex generations are charged) instead of at every
    level.  The pruned tasks remain in the batch for the next phase.
    """

    def successors(
        self,
        vertex: Vertex,
        ctx: PhaseContext,
        budget: SearchBudget,
        stats: SearchStats,
    ) -> Expansion:
        probes = 0
        hopeless_mask = 0
        truncated = False
        m = ctx.num_processors
        bound = ctx.phase_end_bound
        tasks = ctx.tasks
        comm_row = ctx.comm_row
        evaluate = ctx.evaluator.evaluate
        offsets = vertex.proc_offsets
        min_offset = min(offsets)
        child_depth = vertex.depth + 1
        parent_max = vertex.max_offset
        for index in _unscheduled_indices(vertex, ctx.n):
            if probes and budget.exhausted():
                truncated = True
                break
            probes += 1
            stats.task_probes += 1
            task = tasks[index]
            budget.charge(m)
            stats.vertices_generated += m
            row, min_comm = comm_row(index)
            processing = task.processing_time
            deadline_eps = task.deadline + EPSILON
            # Best-case prune: with non-negative communication and monotone
            # offsets, no scheduled end can beat the cheapest row entry on
            # the least-loaded processor.  If even that violates Figure 4's
            # ``t_c + RQ_s(j) + se_lk <= d_l``, every candidate of this probe
            # is rejected without running the per-processor loop; the probe
            # is still charged and counted exactly as the full loop would.
            if bound + (min_offset + (processing + min_comm)) > deadline_eps:
                stats.feasibility_rejections += m
                hopeless_mask |= 1 << index
                stats.tasks_pruned += 1
                continue
            candidates: List[Vertex] = []
            child_mask = vertex.scheduled_mask | (1 << index)
            for processor in range(m):
                total = processing + row[processor]
                scheduled_end = offsets[processor] + total
                if bound + scheduled_end <= deadline_eps:
                    # Inline make_child: the feasibility test already
                    # computed the scheduled end, and the offset tuple is
                    # lazy, so a candidate costs one Vertex allocation.
                    child = Vertex(
                        vertex,
                        index,
                        processor,
                        child_depth,
                        child_mask,
                        None,
                        scheduled_end,
                        row[processor],
                        0.0,
                        parent_max
                        if parent_max >= scheduled_end
                        else scheduled_end,
                    )
                    child.value = evaluate(ctx, child)
                    candidates.append(child)
            stats.feasibility_rejections += m - len(candidates)
            if candidates:
                if hopeless_mask:
                    # Infeasible-everywhere tasks stay infeasible below this
                    # vertex (offsets are monotone); prune them from the
                    # subtree.  They are *not* scheduled and roll over to the
                    # next batch.
                    for child in candidates:
                        child.scheduled_mask |= hopeless_mask
                return Expansion(successors=candidates)
            hopeless_mask |= 1 << index
            stats.tasks_pruned += 1
        # No task could extend the schedule.  If every unscheduled task was
        # probed, this vertex is provably maximal (exhaustive=True).
        return Expansion(successors=[], exhaustive=not truncated)

    def dead_root(
        self,
        tasks: Sequence[Task],
        offsets: Sequence[float],
        bound: float,
        comm: CommunicationModel,
        budget: SearchBudget,
    ) -> Optional[SearchStats]:
        """Certify that no admitted task fits on any processor at the root.

        The root expansion probes tasks in EDF order until one fits or the
        budget truncates it; a root with no fitting task is therefore
        charged ``m`` per probe, every candidate rejected and every probed
        task pruned, and ends maximal unless truncation left untested tasks.
        """
        m = len(offsets)
        min_offset = min(offsets)
        for task in tasks:
            row, min_comm = comm.cost_row_and_min(task, m)
            processing = task.processing_time
            deadline_eps = task.deadline + EPSILON
            if bound + (min_offset + (processing + min_comm)) > deadline_eps:
                continue
            for processor in range(m):
                scheduled_end = offsets[processor] + (processing + row[processor])
                if bound + scheduled_end <= deadline_eps:
                    return None
        stats = _unexpanded_root(len(tasks), budget)
        if stats is not None:
            return stats
        exhausted = budget.exhausted
        charge = budget.charge
        probes = 0
        for _ in tasks:
            if probes and exhausted():
                break
            probes += 1
            charge(m)
        stats = SearchStats(
            vertices_generated=probes * m,
            task_probes=probes,
            feasibility_rejections=probes * m,
            tasks_pruned=probes,
        )
        return _failed_root(stats, budget, exhaustive=probes == len(tasks))


class SequenceOrientedExpander(Expander):
    """D-COLS's representation: pick a processor round-robin, branch on tasks.

    Level ``depth`` of the tree considers processor ``depth % m`` — the
    literal Figure-1 tree, whose first level is always processor 0 — and
    generates candidates for the first ``m`` unscheduled tasks in EDF order
    (the pruning a dynamic sequence-oriented algorithm must apply; the paper
    cites limited backtracking and bounded lookahead), so an expansion
    evaluates exactly as many candidates as an assignment-oriented one.  A
    level whose processor admits no feasible task yields no successors — the
    search must backtrack, and with low replication this is where D-COLS
    dead-ends.
    """

    def processor_at(self, depth: int, num_processors: int) -> int:
        """The processor considered at tree level ``depth``."""
        return depth % num_processors

    def successors(
        self,
        vertex: Vertex,
        ctx: PhaseContext,
        budget: SearchBudget,
        stats: SearchStats,
    ) -> Expansion:
        processor = self.processor_at(vertex.depth, ctx.num_processors)
        beam = ctx.num_processors
        tasks = ctx.tasks
        comm_row = ctx.comm_row
        evaluate = ctx.evaluator.evaluate
        bound = ctx.phase_end_bound
        offset = vertex.proc_offsets[processor]
        child_depth = vertex.depth + 1
        parent_mask = vertex.scheduled_mask
        parent_max = vertex.max_offset
        candidates: List[Vertex] = []
        probed = 0
        for index in _unscheduled_indices(vertex, ctx.n):
            if probed >= beam:
                break
            probed += 1
            task = tasks[index]
            comm = comm_row(index)[0][processor]
            total = task.processing_time + comm
            scheduled_end = offset + total
            if bound + scheduled_end <= task.deadline + EPSILON:
                child = Vertex(
                    vertex,
                    index,
                    processor,
                    child_depth,
                    parent_mask | (1 << index),
                    None,
                    scheduled_end,
                    comm,
                    0.0,
                    parent_max if parent_max >= scheduled_end else scheduled_end,
                )
                child.value = evaluate(ctx, child)
                candidates.append(child)
        budget.charge(probed)
        stats.vertices_generated += probed
        stats.task_probes += 1 if probed else 0
        stats.feasibility_rejections += probed - len(candidates)
        # A failed level only proves infeasibility on *this* processor, so a
        # sequence-oriented expansion is never exhaustive: the representation
        # cannot certify a maximal schedule and must backtrack instead.
        return Expansion(successors=candidates, exhaustive=False)

    def dead_root(
        self,
        tasks: Sequence[Task],
        offsets: Sequence[float],
        bound: float,
        comm: CommunicationModel,
        budget: SearchBudget,
    ) -> Optional[SearchStats]:
        """Certify that none of the first ``m`` tasks fits on processor 0.

        That is the whole root expansion: one charge for the probed tasks,
        then a backtrack to an empty candidate list.
        """
        m = len(offsets)
        processor = self.processor_at(0, m)
        offset = offsets[processor]
        probed = tasks[:m]
        for task in probed:
            comm_cost = comm.cost_row_and_min(task, m)[0][processor]
            scheduled_end = offset + (task.processing_time + comm_cost)
            if bound + scheduled_end <= task.deadline + EPSILON:
                return None
        stats = _unexpanded_root(len(tasks), budget)
        if stats is not None:
            return stats
        budget.charge(len(probed))
        stats = SearchStats(
            vertices_generated=len(probed),
            task_probes=1,
            feasibility_rejections=len(probed),
        )
        return _failed_root(stats, budget, exhaustive=False)
