"""Scheduler zoo: classic multiprocessor policies as placement rules.

Three non-search schedulers that broaden the comparison beyond the
paper's contenders, each a rule under
:class:`~repro.core.baselines.ListScheduler` — so they charge the same
virtual per-vertex cost and honour the same quantum-aware feasibility
bound (the guarantee theorem holds for them):

* :class:`GlobalEDFScheduler` — global earliest-deadline-first onto the
  earliest-available processor, the textbook global-EDF dispatcher.
* :class:`PartitionedEDFScheduler` — partitioned EDF: tasks are packed
  onto processors in decreasing-size order with a worst-fit bin-packing
  rule, then each processor runs its partition in EDF order (Chen &
  Bansal, arXiv:1809.04355 style heuristics).
* :class:`CandidateSortScheduler` — per-task candidate sorting in the
  style of slot-allocation runtimes: rank every processor by affinity
  (communication cost) then availability, and take the first feasible
  candidate or declare the task stuck.
"""

from __future__ import annotations

from typing import List, Sequence

from .baselines import ListScheduler, Placement
from .feasibility import is_feasible_against_bound
from .registry import register_scheduler
from .schedule import ScheduleEntry
from .task import Task


def _emptiest(feasible: List[Placement], offsets: Sequence[float]) -> Placement:
    """The feasible placement on the processor that frees up first."""
    return min(feasible, key=lambda choice: (offsets[choice[0]], choice[0]))


class GlobalEDFScheduler(ListScheduler):
    """EDF task order dispatched to the earliest-available processor.

    Differs from :class:`~repro.core.baselines.GreedyEDFScheduler` in the
    processor rule: global EDF takes the machine that frees up first
    (least loaded), not the one that finishes *this* task first, so a
    high-communication task still lands on the emptiest queue.
    """

    name = "Global-EDF"

    def pick(self, feasible, offsets):
        """Least-loaded feasible processor, lowest index on ties."""
        return _emptiest(feasible, offsets)


class CandidateSortScheduler(ListScheduler):
    """Sort each task's processor candidates, take the first feasible.

    Candidates are ranked by (communication cost, availability, index):
    affine processors first — a replica-local processor pays zero comm —
    then the least-loaded among equals.  The first candidate that passes
    the feasibility bound wins; if the sorted list is exhausted the task
    is stuck this phase and waits for the next batch.
    """

    name = "Candidate-Sort"

    def pick(self, feasible, offsets):
        """First of the feasible in (comm cost, availability, index) rank."""
        return min(
            feasible,
            key=lambda choice: (choice[1], offsets[choice[0]], choice[0]),
        )


class PartitionedEDFScheduler(ListScheduler):
    """Partitioned EDF: bin-pack tasks onto processors, run each in EDF.

    Phase one packs the batch in decreasing processing-time order using a
    worst-fit rule over the feasible processors.  Phase two reorders every
    processor's partition into EDF and recomputes completion times; because
    each task's requirement on a fixed processor is constant (processing
    time plus that pair's communication cost), the EDF exchange argument
    keeps every packed task feasible, and a defensive re-check drops any
    that are not rather than dispatching a doomed assignment.
    """

    name = "Partitioned-EDF"

    def order(self, batch: Sequence[Task]) -> List[Task]:
        """Decreasing size, the bin-packing order."""
        return sorted(
            batch, key=lambda t: (-t.processing_time, t.deadline, t.task_id)
        )

    def pick(self, feasible, offsets):
        """Worst fit: the emptiest feasible bin."""
        return _emptiest(feasible, offsets)

    def place(self, viable, offsets, bound, budget, stats):
        """Pack with the shared loop, then run each partition in EDF."""
        initial = tuple(offsets)
        partitions: List[List[ScheduleEntry]] = [[] for _ in offsets]
        for entry in super().place(viable, offsets, bound, budget, stats):
            partitions[entry.processor].append(entry)
        # Recompute the ends from the processor's initial offset and
        # re-verify the bound.
        entries = []
        for processor, packed in enumerate(partitions):
            cursor = initial[processor]
            for entry in sorted(
                packed, key=lambda e: (e.task.deadline, e.task.task_id)
            ):
                task, comm_cost = entry.task, entry.communication_cost
                end = cursor + task.processing_time + comm_cost
                if not is_feasible_against_bound(task, end, bound):
                    stats.feasibility_rejections += 1
                    continue
                cursor = end
                entries.append(ScheduleEntry(task, processor, comm_cost, end))
        return entries


register_scheduler("edf", GlobalEDFScheduler.from_context)
register_scheduler("partitioned-edf", PartitionedEDFScheduler.from_context)
register_scheduler("candidate-sort", CandidateSortScheduler.from_context)
