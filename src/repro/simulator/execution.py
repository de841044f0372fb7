"""Execution-time models: worst-case plans vs actual run times.

The scheduler plans with worst-case costs (the host's ``Execution_Cost``
estimates), but at execution time a task may finish early — an indexed probe
matches fewer tuples than the index's worst case, a scan short-circuits at
its first match.  When it does, the worker immediately starts its next
queued task, *reclaiming* the unused time, and the shrunken loads feed back
into the self-adjusting quantum.  This is the resource-reclaiming line of
work the paper builds on (Shen, Ramamritham & Stankovic, IEEE TPDS 1993,
the paper's reference [3]); the event-driven runtime implements its "basic
reclaiming" automatically.

An execution model maps a delivered schedule entry to the processor time it
actually consumes.  Actual cost may never exceed the planned worst case —
that would void the paper's correctness theorem — and the runtime enforces
this with :exc:`ExecutionModelError`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Optional

from ..core.schedule import ScheduleEntry
from ..database.cost_model import CHECK_COST


class ExecutionModelError(RuntimeError):
    """An execution model produced a cost above the planned worst case."""


class ExecutionTimeModel(ABC):
    """Maps a delivered entry to the processor time it actually takes."""

    @abstractmethod
    def actual_cost(self, entry: ScheduleEntry) -> float:
        """Actual processor time consumed; must be in (0, planned]."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ScaledExecution(ExecutionTimeModel):
    """Every task consumes a fixed fraction of its planned processing time.

    Communication cost is not scaled: the data transfer happens regardless
    of how quickly the checking process terminates.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def actual_cost(self, entry: ScheduleEntry) -> float:
        return entry.communication_cost + (
            self.fraction * entry.task.processing_time
        )


class StochasticExecution(ExecutionTimeModel):
    """Actual processing time uniform in [low, high] x planned (seeded).

    Models run-to-run variance in how early the checking process completes;
    the draw is deterministic per task id so repeated runs agree.
    """

    def __init__(self, low: float, high: float, seed: int) -> None:
        if not 0.0 < low <= high <= 1.0:
            raise ValueError(
                f"need 0 < low <= high <= 1, got low={low} high={high}"
            )
        self.low = low
        self.high = high
        self.seed = seed

    def actual_cost(self, entry: ScheduleEntry) -> float:
        # Per-task deterministic stream: mix the model seed with the id.
        rng = random.Random(self.seed * 1_000_003 + entry.task.task_id)
        fraction = rng.uniform(self.low, self.high)
        return entry.communication_cost + (
            fraction * entry.task.processing_time
        )


class FirstMatchDatabaseExecution(ExecutionTimeModel):
    """Actual checking work of transactions that stop at their first match.

    For a "locate a record" query the node can stop scanning as soon as one
    tuple satisfies every predicate; the worst case (what the host planned
    with) only materializes when no tuple matches.  Costs are resolved
    against the *real* database contents via
    :meth:`repro.database.table.SubDatabase.probe_first_match`.
    """

    def __init__(self, database, transactions) -> None:
        self.database = database
        self._transactions: Dict[int, object] = {
            txn.txn_id: txn for txn in transactions
        }

    def actual_cost(self, entry: ScheduleEntry) -> float:
        txn = self._transactions.get(entry.task.task_id)
        if txn is None:
            return entry.total_cost
        target = txn.target_subdb(self.database.schema)
        subdb = self.database.subdatabases[target]
        _, tuples_checked = subdb.probe_first_match(txn.predicates)
        processing = CHECK_COST * max(1, tuples_checked)
        # Never exceed the plan: the estimate is a worst case by
        # construction, but guard against configuration mismatches.
        processing = min(processing, entry.task.processing_time)
        return entry.communication_cost + processing


def resolve_actual_cost(
    model: Optional[ExecutionTimeModel], entry: ScheduleEntry
) -> float:
    """Actual cost under ``model`` (worst case when ``None``), validated."""
    if model is None:
        return entry.total_cost
    actual = model.actual_cost(entry)
    if actual <= 0.0:
        raise ExecutionModelError(
            f"{model.name} produced non-positive cost {actual} for task "
            f"{entry.task.task_id}"
        )
    if actual > entry.total_cost + 1e-9:
        raise ExecutionModelError(
            f"{model.name} produced cost {actual} above the planned worst "
            f"case {entry.total_cost} for task {entry.task.task_id}; this "
            "would void the deadline guarantee"
        )
    return actual
