"""Allocation of scheduling time: the quantum policies (paper Section 4.2).

RT-SADS self-adjusts the time ``Q_s(j)`` allocated to scheduling phase ``j``
with the criterion of Figure 3::

    Q_s(j) <= max(Min_Slack, Min_Load)
    Min_Slack = min slack over tasks in Batch(j)
    Min_Load  = min remaining load over working processors

Long quanta are granted when slacks are large or processors are busy (more
time to optimize); short quanta when slacks are small or a processor is about
to idle (honor deadlines, reduce idle time).  Fixed and single-term policies
are provided for the quantum ablation (A1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from .batch import batch_behind
from .task import Task


class QuantumPolicy(ABC):
    """Decides ``Q_s(j)`` from the batch, processor loads, and current time."""

    #: Smallest quantum the policy will grant.  A zero quantum would forbid
    #: even one vertex evaluation and stall the runtime; a handful of
    #: evaluations is always allowed (10 vertices at the default per-vertex
    #: cost of 0.1).  :class:`FixedQuantum` pins it to its value.
    min_quantum = 1.0

    @abstractmethod
    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        """Policy-specific quantum before clamping."""

    def quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        """``Q_s(j)`` for a phase starting at ``now``, floored at the minimum."""
        return max(self._raw_quantum(batch, loads, now), self.min_quantum)

    @property
    def name(self) -> str:
        return type(self).__name__


def min_slack(batch: Sequence[Task], now: float) -> float:
    """``Min_Slack``: smallest slack among batch tasks, floored at zero.

    A batch's own :class:`~repro.core.batch.EdfOrder` answers from the
    batch's latest-start index (the same float, without the scan).
    """
    if not batch:
        return 0.0
    source = batch_behind(batch)
    if source is not None:
        return source.min_slack(now)
    return max(0.0, min(task.slack(now) for task in batch))


def min_load(loads: Sequence[float]) -> float:
    """``Min_Load``: smallest remaining load among working processors."""
    if not loads:
        return 0.0
    return min(loads)


class SelfAdjustingQuantum(QuantumPolicy):
    """The paper's criterion: ``Q_s(j) = max(Min_Slack, Min_Load)``.

    ``Min_Slack`` caps scheduling time so no batch task's deadline is burned
    by scheduling overhead; when the shortest processor queue exceeds it,
    waiting tasks would miss their deadlines anyway, so the quantum is
    extended to ``Min_Load``, buying schedule quality at no compliance cost.
    """

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return max(min_slack(batch, now), min_load(loads))


class SlackOnlyQuantum(QuantumPolicy):
    """Ablation: ``Q_s(j) = Min_Slack`` (ignores processor loads)."""

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return min_slack(batch, now)


class LoadOnlyQuantum(QuantumPolicy):
    """Ablation: ``Q_s(j) = Min_Load`` (ignores task slacks)."""

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return min_load(loads)


class FixedQuantum(QuantumPolicy):
    """Ablation: a constant quantum, the non-adaptive strawman."""

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError("fixed quantum must be positive")
        self.value = self.min_quantum = value

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return self.value
