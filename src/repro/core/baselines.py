"""Non-search baselines: the list frame and three placement rules.

These enrich the comparison beyond the paper's two contenders:

* :class:`GreedyEDFScheduler` — earliest-deadline-first list scheduling with
  minimum-completion-time processor choice and no backtracking.
* :class:`MyopicScheduler` — a Ramamritham/Stankovic-style myopic heuristic
  (bounded feasibility-check window, weighted heuristic ``H = d + W * est``),
  the family the paper says inspired D-COLS.
* :class:`RandomScheduler` — random task order, random feasible processor;
  the sanity-check floor.

All of them (and the zoo in :mod:`repro.core.zoo`) are a
:class:`ListScheduler`: the frame charges the same virtual per-vertex cost
for every (task, processor) pair a rule looks at and applies the same
quantum-aware feasibility bound, so the paper's correctness theorem holds
for each by construction.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .affinity import CommunicationModel
from .batch import in_edf_order
from .feasibility import is_feasible_against_bound, projected_offsets
from .phase import MIN_PHASE_TIME, PhaseResult
from .quantum import QuantumPolicy
from .registry import register_scheduler
from .schedule import Schedule, ScheduleEntry
from .scheduler import DEFAULT_PER_VERTEX_COST, Scheduler
from .search import SearchStats, VirtualTimeBudget
from .task import Task

#: One feasible placement of a task: ``(processor, comm_cost, end)``.
Placement = Tuple[int, float, float]


class ListScheduler(Scheduler):
    """The frame's hook for schedulers that place without backtracking.

    :meth:`fill_window` is order -> pre-filter -> placements -> stats ->
    :class:`PhaseResult`.  A subclass overrides what distinguishes it:

    * :meth:`order` — the sequence tasks are considered in (default EDF);
    * :meth:`pick` — which of a task's feasible placements to take;
    * :meth:`place` — the loop that turns the admitted tasks into entries
      (default: one pass, one :meth:`probe` and one :meth:`pick` per task).
    """

    def fill_window(self, batch, loads, now, budget):
        """One list-scheduling phase over the window ``budget.quantum``."""
        window = budget.quantum
        initial = projected_offsets(loads, window)
        bound = now + window
        stats = SearchStats()
        # Same necessary-condition pre-filter as run_phase: drop tasks that
        # cannot meet their deadline even at zero wait this phase.
        viable = [
            task
            for task in self.order(batch)
            if is_feasible_against_bound(task, task.processing_time, bound)
        ]
        stats.prefilter_rejected = len(batch) - len(viable)
        schedule = Schedule(
            self.place(viable, list(initial), bound, budget, stats)
        )
        stats.expansions = len(schedule)
        stats.max_depth = len(schedule)
        stats.processors_touched = len(schedule.processors())
        stats.complete = len(schedule) == len(batch)
        return PhaseResult(
            schedule=schedule,
            time_used=min(max(budget.used(), MIN_PHASE_TIME), window),
            quantum=window,
            phase_start=now,
            stats=stats,
            initial_offsets=initial,
        )

    def order(self, batch: Sequence[Task]) -> List[Task]:
        """Order in which tasks are considered for assignment."""
        return in_edf_order(batch)

    def probe(
        self,
        task: Task,
        offsets: Sequence[float],
        bound: float,
        budget: VirtualTimeBudget,
        stats: SearchStats,
    ) -> List[Placement]:
        """Charge one vertex per processor; the placements meeting ``bound``.

        Returned in processor order.  Every infeasible (task, processor)
        pair counts as a feasibility rejection, whatever the rule then does
        with the feasible ones.
        """
        budget.charge(len(offsets))
        stats.task_probes += 1
        stats.vertices_generated += len(offsets)
        feasible = []
        for processor, offset in enumerate(offsets):
            comm_cost = self.comm.cost(task, processor)
            end = offset + task.processing_time + comm_cost
            if is_feasible_against_bound(task, end, bound):
                feasible.append((processor, comm_cost, end))
        stats.feasibility_rejections += len(offsets) - len(feasible)
        return feasible

    def pick(
        self, feasible: List[Placement], offsets: Sequence[float]
    ) -> Placement:
        """Choose among a task's feasible placements (never empty)."""
        return min(feasible, key=lambda choice: choice[2])

    def place(
        self,
        viable: List[Task],
        offsets: List[float],
        bound: float,
        budget: VirtualTimeBudget,
        stats: SearchStats,
    ) -> List[ScheduleEntry]:
        """One pass over ``viable``: probe, pick, advance that processor."""
        entries = []
        for task in viable:
            if budget.exhausted():
                break
            feasible = self.probe(task, offsets, bound, budget, stats)
            if not feasible:
                continue
            processor, comm_cost, end = self.pick(feasible, offsets)
            offsets[processor] = end
            entries.append(ScheduleEntry(task, processor, comm_cost, end))
        return entries


class GreedyEDFScheduler(ListScheduler):
    """EDF order, minimum-completion-time processor, no backtracking."""

    name = "Greedy-EDF"


class RandomScheduler(ListScheduler):
    """Random task order and random feasible processor (seeded)."""

    name = "Random"

    #: Seed of the generator every instance starts from (and rewinds to).
    SEED = 0

    def __init__(
        self,
        comm: CommunicationModel,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
    ) -> None:
        super().__init__(comm, quantum_policy, per_vertex_cost)
        self._rng = random.Random(self.SEED)

    def reset(self) -> None:
        """Rewind the generator too, so a rerun repeats its choices."""
        super().reset()
        self._rng = random.Random(self.SEED)

    def order(self, batch: Sequence[Task]) -> List[Task]:
        """A seeded shuffle of the batch."""
        tasks = list(batch)
        self._rng.shuffle(tasks)
        return tasks

    def pick(self, feasible, offsets):
        """Any feasible placement, uniformly."""
        return self._rng.choice(feasible)


class MyopicScheduler(ListScheduler):
    """Myopic heuristic scheduling (Ramamritham, Stankovic & Zhao style).

    At each step only the :attr:`WINDOW` earliest-deadline unassigned tasks
    are considered; the one minimizing ``H = d + WEIGHT * earliest_start``
    is assigned to its earliest-finishing feasible processor.  This is the
    uniprocessor/shared-memory technique whose sequence-oriented extension
    the paper critiques, included here as an additional reference point.
    """

    name = "Myopic"

    #: Feasibility-check window: tasks looked at per placement step.
    WINDOW = 8
    #: ``W`` of the heuristic ``H = d + W * est``.
    WEIGHT = 1.0

    def place(self, viable, offsets, bound, budget, stats):
        """Repeatedly place the best ``(H, end)`` of the lookahead window."""
        entries = []
        remaining = list(viable)
        while remaining and not budget.exhausted():
            best = None  # ((H, end), position, placement)
            for position, task in enumerate(remaining[: self.WINDOW]):
                for choice in self.probe(task, offsets, bound, budget, stats):
                    _, comm_cost, end = choice
                    start = end - task.processing_time - comm_cost
                    key = (task.deadline + self.WEIGHT * start, end)
                    if best is None or key < best[0]:
                        best = (key, position, choice)
            if best is None:
                # No window task is feasible anywhere: the myopic strategy
                # discards the head (tightest) task and retries.
                remaining.pop(0)
                stats.backtracks += 1
                continue
            _, position, (processor, comm_cost, end) = best
            offsets[processor] = end
            entries.append(
                ScheduleEntry(remaining.pop(position), processor, comm_cost, end)
            )
        return entries


register_scheduler("greedy_edf", GreedyEDFScheduler.from_context)
register_scheduler("myopic", MyopicScheduler.from_context)
register_scheduler("random", RandomScheduler.from_context)
