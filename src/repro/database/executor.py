"""Transaction execution on a working processor.

"Executing a transaction would mean iterating a checking process among the
tuples which partially match the attributes values of the transaction"
(paper Section 5).  The executor performs that checking process against the
target sub-database — key-index probe when a key value is given, full
partition scan otherwise — and reports how many tuples it actually checked,
which tests compare against the host's worst-case estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..observability import get_instrumentation
from .cost_model import CHECK_COST, WRITE_COST_FACTOR
from .locks import LockManager, LockMode
from .schema import Schema
from .table import SubDatabase
from .transaction import Transaction, UpdateTransaction

Row = Tuple[int, ...]


class LockAcquisitionBlocked(RuntimeError):
    """A synchronous executor found the required lock held incompatibly."""


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of running one transaction on a node."""

    txn_id: int
    subdb: int
    matches: Tuple[Row, ...]
    tuples_checked: int
    cost: float  # actual processing time spent checking
    rows_changed: int = 0  # non-zero only for update transactions

    @property
    def match_count(self) -> int:
        return len(self.matches)


class TransactionExecutor:
    """Executes transactions against locally resident sub-databases."""

    #: Writing one matched row costs this many checking iterations; the
    #: canonical value lives next to the estimator so plan and execution
    #: can never drift apart.
    WRITE_COST_FACTOR = WRITE_COST_FACTOR

    def __init__(
        self,
        schema: Schema,
        subdatabases: Dict[int, SubDatabase],
        lock_manager: LockManager | None = None,
        global_index=None,
    ) -> None:
        self.schema = schema
        self.subdatabases = dict(subdatabases)
        self.lock_manager = lock_manager
        self.global_index = global_index

    def _resident(self, txn: Transaction) -> SubDatabase:
        target = txn.target_subdb(self.schema)
        subdb = self.subdatabases.get(target)
        if subdb is None:
            raise LookupError(
                f"sub-database {target} is not resident on this node "
                f"(holds {sorted(self.subdatabases)})"
            )
        return subdb

    def _lock(self, resource: int, owner: int, mode: LockMode) -> None:
        if self.lock_manager is None:
            return
        if not self.lock_manager.acquire(resource, owner, mode):
            raise LockAcquisitionBlocked(
                f"transaction {owner} blocked on sub-database {resource} "
                f"({mode.value} lock unavailable)"
            )

    def _unlock(self, resource: int, owner: int) -> None:
        if self.lock_manager is not None:
            self.lock_manager.release(resource, owner)

    def _record_access(
        self, kind: str, subdb: int, tuples_checked: int, rows_changed: int
    ) -> None:
        """Count one sub-database access in the process metrics registry."""
        obs = get_instrumentation()
        if not obs.enabled:
            return
        metrics = obs.metrics
        metrics.counter("db_executions", kind=kind, subdb=subdb).inc()
        metrics.counter("db_tuples_checked", subdb=subdb).inc(tuples_checked)
        if rows_changed:
            metrics.counter("db_rows_changed", subdb=subdb).inc(rows_changed)

    def execute(self, txn: Transaction) -> ExecutionOutcome:
        """Run the checking process; raises if the partition is not local.

        Dispatches writes to :meth:`execute_update`; with a lock manager
        configured, reads take a SHARED sub-database lock for their
        duration.
        """
        if isinstance(txn, UpdateTransaction):
            return self.execute_update(txn)
        subdb = self._resident(txn)
        target = subdb.subdb_id
        self._lock(target, txn.txn_id, LockMode.SHARED)
        try:
            matches, tuples_checked = subdb.probe(txn.predicates)
        finally:
            self._unlock(target, txn.txn_id)
        # An absent key value still costs one index probe, matching the
        # cost model's positive-cost floor.
        tuples_checked = max(1, tuples_checked)
        self._record_access("read", target, tuples_checked, 0)
        return ExecutionOutcome(
            txn_id=txn.txn_id,
            subdb=target,
            matches=tuple(matches),
            tuples_checked=tuples_checked,
            cost=CHECK_COST * tuples_checked,
        )

    def execute_update(self, txn: UpdateTransaction) -> ExecutionOutcome:
        """Apply an update transaction under an EXCLUSIVE lock.

        Mutates the resident sub-database, maintains its local key index,
        and — when this executor carries the host's global index —
        propagates the key-frequency deltas to it.  The cost charges one
        checking iteration per candidate tuple plus ``WRITE_COST_FACTOR``
        iterations per modified row.
        """
        subdb = self._resident(txn)
        target = subdb.subdb_id
        self._lock(target, txn.txn_id, LockMode.EXCLUSIVE)
        try:
            matches, tuples_checked = subdb.probe(txn.predicates)
            rows_changed, deltas = subdb.apply_update(
                txn.predicates, txn.updates
            )
        finally:
            self._unlock(target, txn.txn_id)
        if self.global_index is not None and deltas:
            self.global_index.apply_deltas(deltas)
        tuples_checked = max(1, tuples_checked)
        self._record_access("write", target, tuples_checked, rows_changed)
        cost = CHECK_COST * (
            tuples_checked + self.WRITE_COST_FACTOR * rows_changed
        )
        return ExecutionOutcome(
            txn_id=txn.txn_id,
            subdb=target,
            matches=tuple(matches),
            tuples_checked=tuples_checked,
            cost=cost,
            rows_changed=rows_changed,
        )
