"""Synthetic (database-free) task workloads.

For unit tests, property tests, and experiments that probe the scheduler
itself rather than the database application: tasks with configurable
processing-time distributions, affinity probability (the paper's *degree of
affinity*), and laxity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.affinity import random_affinity
from ..core.task import Task, TaskSet
from .arrivals import ArrivalProcess, BurstyArrival
from .deadlines import ProportionalDeadline


@dataclass(frozen=True)
class SyntheticWorkloadConfig:
    """Parameters of a synthetic task workload."""

    num_tasks: int = 100
    num_processors: int = 4
    affinity_probability: float = 0.3
    min_processing_time: float = 10.0
    max_processing_time: float = 100.0
    slack_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        if self.num_processors <= 0:
            raise ValueError("num_processors must be positive")
        if not 0.0 <= self.affinity_probability <= 1.0:
            raise ValueError("affinity_probability must be in [0, 1]")
        if self.min_processing_time <= 0:
            raise ValueError("min_processing_time must be positive")
        if self.max_processing_time < self.min_processing_time:
            raise ValueError("max_processing_time < min_processing_time")
        if self.slack_factor <= 0:
            raise ValueError("slack_factor must be positive")


class SyntheticWorkloadGenerator:
    """Generates plain real-time task sets without a database behind them."""

    def __init__(
        self,
        config: Optional[SyntheticWorkloadConfig] = None,
        arrivals: Optional[ArrivalProcess] = None,
    ) -> None:
        self.config = config or SyntheticWorkloadConfig()
        self.arrivals = arrivals or BurstyArrival()
        self.deadlines = ProportionalDeadline(self.config.slack_factor)

    def generate(self) -> TaskSet:
        cfg = self.config
        rng = random.Random(cfg.seed)
        times = self.arrivals.arrival_times(cfg.num_tasks, rng)
        tasks = TaskSet()
        for task_id, arrival in enumerate(times):
            processing = rng.uniform(
                cfg.min_processing_time, cfg.max_processing_time
            )
            deadline = self.deadlines.deadline(arrival, processing)
            tasks.add(
                Task(
                    task_id=task_id,
                    processing_time=processing,
                    arrival_time=arrival,
                    deadline=deadline,
                    affinity=random_affinity(
                        cfg.num_processors, cfg.affinity_probability, rng
                    ),
                    tag="synthetic",
                )
            )
        return tasks
