"""Execution traces: per-phase and per-task records of a simulation run.

The experiment harness consumes these to compute deadline hit ratios, and
the ablations consume the phase-level search statistics (dead-end rates,
depth reached, processors touched) that validate the paper's Section 3
conjectures about sequence-oriented representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.feasibility import EPSILON
from ..core.task import Task

# Canonical homes since the runtime unification; re-exported here because
# this module is where simulator-facing code has always imported them.
from ..metrics.compliance import (  # noqa: F401
    STATUS_COMPLETED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    ratio as _ratio,
)
from ..runtime.driver import PhaseTrace  # noqa: F401


@dataclass
class TaskRecord:
    """Lifecycle of one task through the on-line system."""

    task: Task
    status: str = ""
    processor: Optional[int] = None
    scheduled_phase: Optional[int] = None
    delivered_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    planned_cost: Optional[float] = None  # worst case the scheduler budgeted
    actual_cost: Optional[float] = None  # what execution really consumed

    @property
    def task_id(self) -> int:
        return self.task.task_id

    @property
    def was_scheduled(self) -> bool:
        return self.scheduled_phase is not None

    @property
    def met_deadline(self) -> bool:
        """The deadline-compliance predicate of the paper's metric."""
        return (
            self.status == STATUS_COMPLETED
            and self.finished_at is not None
            and self.finished_at <= self.task.deadline + EPSILON
        )

    @property
    def reclaimed_time(self) -> float:
        """Worst-case time the task did not consume (early completion)."""
        if self.planned_cost is None or self.actual_cost is None:
            return 0.0
        return max(0.0, self.planned_cost - self.actual_cost)


@dataclass
class SimulationTrace:
    """All records of a run; the single artifact metrics code consumes."""

    records: Dict[int, TaskRecord] = field(default_factory=dict)
    phases: List[PhaseTrace] = field(default_factory=list)
    finished_at: float = 0.0

    def add_task(self, task: Task) -> TaskRecord:
        if task.task_id in self.records:
            raise ValueError(f"task {task.task_id} already traced")
        record = TaskRecord(task=task)
        self.records[task.task_id] = record
        return record

    # ----- aggregate views -------------------------------------------------

    def total_tasks(self) -> int:
        return len(self.records)

    def completed(self) -> List[TaskRecord]:
        return [r for r in self.records.values() if r.status == STATUS_COMPLETED]

    def expired(self) -> List[TaskRecord]:
        return [r for r in self.records.values() if r.status == STATUS_EXPIRED]

    def failed(self) -> List[TaskRecord]:
        return [r for r in self.records.values() if r.status == STATUS_FAILED]

    def deadline_hits(self) -> int:
        return sum(1 for r in self.records.values() if r.met_deadline)

    def hit_ratio(self) -> float:
        """Deadline compliance: fraction of tasks finished by their deadline."""
        return _ratio(self.deadline_hits(), len(self.records))

    def scheduled_but_missed(self) -> List[TaskRecord]:
        """Tasks that were scheduled yet finished late.

        The paper's theorem guarantees this list is empty for RT-SADS (and
        for every scheduler built on the quantum-aware feasibility test);
        integration tests assert exactly that.
        """
        return [
            r
            for r in self.records.values()
            if r.was_scheduled
            and r.finished_at is not None
            and r.finished_at > r.task.deadline + EPSILON
        ]

    def dead_end_rate(self) -> float:
        """Fraction of phases that terminated in a dead end."""
        if not self.phases:
            return 0.0
        return sum(1 for p in self.phases if p.dead_end) / len(self.phases)

    def mean_depth(self) -> float:
        """Average schedule depth over *productive* phases.

        Phases that scheduled nothing (dead-ends, empty working sets) are
        excluded — including them dilutes the depth signal with zeros and
        hides exactly the representation difference the metric exists to
        show.
        """
        productive = [p for p in self.phases if p.scheduled > 0]
        if not productive:
            return 0.0
        return sum(p.max_depth for p in productive) / len(productive)

    def mean_processors_touched(self) -> float:
        """Average distinct processors used per productive phase schedule."""
        productive = [p for p in self.phases if p.scheduled > 0]
        if not productive:
            return 0.0
        return sum(p.processors_touched for p in productive) / len(productive)

    def total_scheduling_time(self) -> float:
        """Virtual time the host spent inside scheduling phases."""
        return sum(p.time_used for p in self.phases)

    def total_reclaimed_time(self) -> float:
        """Worst-case processor time reclaimed by early completions."""
        return sum(r.reclaimed_time for r in self.records.values())

    def gantt(self) -> Dict[int, List[tuple]]:
        """Per-processor ``(task_id, start, finish)`` triples, time-ordered."""
        lanes: Dict[int, List[tuple]] = {}
        for record in self.records.values():
            if record.status != STATUS_COMPLETED or record.processor is None:
                continue
            lanes.setdefault(record.processor, []).append(
                (record.task_id, record.started_at, record.finished_at)
            )
        for lane in lanes.values():
            lane.sort(key=lambda item: item[1])
        return lanes
