"""Worst-case transaction cost estimation (paper Section 5).

::

    Execution_Cost(q) = k * ( Frequency_of_matching_key_values   if key in F
                              r / d                               otherwise )

where ``k`` is the processing time of one checking iteration, ``F`` the
attributes with given values, ``r`` the global record count, and ``d`` the
number of sub-databases.  The estimate is a *worst case*: with a key value
the node checks exactly the key-matching tuples (via its local key index);
without one it scans its whole partition.  Accuracy against the real
executor is asserted by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import GlobalIndex
from .schema import Schema
from .transaction import Transaction, UpdateTransaction

#: ``k``, the processing time of one checking iteration: the time unit of
#: the whole reproduction.
CHECK_COST = 1.0

#: Writing one matched row costs this many checking iterations (read,
#: modify, write back).  Shared between the estimator and the executor.
WRITE_COST_FACTOR = 2.0


@dataclass(frozen=True)
class CostEstimate:
    """Outcome of estimating one transaction."""

    tuples_to_check: int
    cost: float
    used_index: bool
    target_subdb: int


class TransactionCostModel:
    """Host-side estimator backed by the global index file."""

    def __init__(
        self,
        schema: Schema,
        index: GlobalIndex,
        records_per_subdb: int,
    ) -> None:
        if records_per_subdb <= 0:
            raise ValueError("records_per_subdb must be positive")
        self.schema = schema
        self.index = index
        self.records_per_subdb = records_per_subdb

    def estimate(self, txn: Transaction) -> CostEstimate:
        """Worst-case execution cost of ``txn`` on a node holding its data.

        A key-giving transaction whose key value matches no tuple still
        costs one index probe (one checking iteration), so estimated costs
        are always positive — a requirement of the task model (p_i > 0).
        """
        target = txn.target_subdb(self.schema)
        if txn.gives_key(self.schema):
            frequency = self.index.frequency(txn.key_value(self.schema))
            tuples = max(1, frequency)
            used_index = True
        else:
            tuples = self.records_per_subdb
            used_index = False
        cost = CHECK_COST * tuples
        if isinstance(txn, UpdateTransaction):
            # Worst case: every candidate tuple matches and is rewritten.
            cost += CHECK_COST * WRITE_COST_FACTOR * tuples
        return CostEstimate(
            tuples_to_check=tuples,
            cost=cost,
            used_index=used_index,
            target_subdb=target,
        )
