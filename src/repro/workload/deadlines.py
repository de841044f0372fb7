"""Deadline assignment (paper Section 5.1).

Deadlines are proportional to the estimated processing time::

    Deadline(q) = SF * 10 * Estimated_Cost(q)

measured from the task's arrival.  ``SF`` (the *slack factor*, called
*laxity* in the figures) ranges from 1 (tight) to 3 (loose).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

#: The fixed multiplier in the paper's deadline formula.
PAPER_DEADLINE_MULTIPLIER = 10.0


class DeadlinePolicy(ABC):
    """Maps (arrival, estimated cost) to an absolute deadline."""

    @abstractmethod
    def deadline(self, arrival_time: float, estimated_cost: float) -> float:
        """Absolute deadline of a task arriving at ``arrival_time``."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ProportionalDeadline(DeadlinePolicy):
    """The paper's rule: ``d = a + SF * 10 * cost``."""

    def __init__(self, slack_factor: float) -> None:
        if slack_factor <= 0:
            raise ValueError("slack_factor must be positive")
        self.slack_factor = slack_factor

    def deadline(self, arrival_time: float, estimated_cost: float) -> float:
        if estimated_cost <= 0:
            raise ValueError("estimated_cost must be positive")
        return (
            arrival_time
            + self.slack_factor * PAPER_DEADLINE_MULTIPLIER * estimated_cost
        )
