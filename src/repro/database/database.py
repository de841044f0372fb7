"""The distributed database facade: build, place, estimate, convert.

Assembles the pieces — schema, generated sub-databases, hash partitioning,
replica placement, global index, cost model — into the object the workload
generator and experiments use, and converts transactions into the scheduler's
:class:`~repro.core.task.Task` model (affinity = processors holding the
target sub-database, processing time = worst-case estimated cost).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.task import Task
from .cost_model import TransactionCostModel
from .executor import TransactionExecutor
from .index import GlobalIndex
from .partition import IntervalHashPartitioner
from .replication import ReplicaPlacement, place_replicas
from .schema import DEFAULT_DOMAIN_SIZE, DEFAULT_NUM_ATTRIBUTES, Schema
from .table import DEFAULT_RECORDS_PER_SUBDB, SubDatabase, generate_subdatabase
from .transaction import Transaction


@dataclass(frozen=True)
class DatabaseConfig:
    """Static parameters of the evaluation database (paper Section 5.1)."""

    num_subdatabases: int = 10
    records_per_subdb: int = DEFAULT_RECORDS_PER_SUBDB
    num_attributes: int = DEFAULT_NUM_ATTRIBUTES
    domain_size: int = DEFAULT_DOMAIN_SIZE

    def __post_init__(self) -> None:
        if self.num_subdatabases <= 0:
            raise ValueError("num_subdatabases must be positive")
        if self.records_per_subdb <= 0:
            raise ValueError("records_per_subdb must be positive")

    @property
    def total_records(self) -> int:
        """``r``: global record count."""
        return self.num_subdatabases * self.records_per_subdb

    def make_schema(self) -> Schema:
        return Schema(
            num_subdatabases=self.num_subdatabases,
            num_attributes=self.num_attributes,
            domain_size=self.domain_size,
        )


class DistributedDatabase:
    """A populated, partitioned, replicated database plus its host index."""

    def __init__(
        self,
        config: DatabaseConfig,
        schema: Schema,
        subdatabases: Dict[int, SubDatabase],
        placement: ReplicaPlacement,
        index: GlobalIndex,
    ) -> None:
        self.config = config
        self.schema = schema
        self.subdatabases = subdatabases
        self.placement = placement
        self.index = index
        self.partitioner = IntervalHashPartitioner(schema)
        self.cost_model = TransactionCostModel(
            schema=schema,
            index=index,
            records_per_subdb=config.records_per_subdb,
        )

    @classmethod
    def build(
        cls,
        config: Optional[DatabaseConfig] = None,
        num_processors: int = 10,
        replication_rate: float = 0.3,
        rng: Optional[random.Random] = None,
    ) -> "DistributedDatabase":
        """Generate data, place replicas, and build the global index."""
        config = config or DatabaseConfig()
        rng = rng or random.Random(0)
        schema = config.make_schema()
        subdatabases = {
            subdb: generate_subdatabase(
                subdb, schema, config.records_per_subdb, rng
            )
            for subdb in range(config.num_subdatabases)
        }
        placement = place_replicas(
            num_subdatabases=config.num_subdatabases,
            num_processors=num_processors,
            replication_rate=replication_rate,
            rng=rng,
        )
        index = GlobalIndex.build(schema, subdatabases.values())
        return cls(
            config=config,
            schema=schema,
            subdatabases=subdatabases,
            placement=placement,
            index=index,
        )

    # ----- scheduler-facing views -------------------------------------------

    def affinity_of(self, txn: Transaction) -> frozenset:
        """Processors whose local memory can serve ``txn`` without transfer.

        Read-only transactions can run on any replica holder; write
        transactions are pinned to the primary copy (primary-copy
        replication), so same-partition writes serialize through one FIFO
        queue and no lock waits can delay a scheduled task.
        """
        subdb = txn.target_subdb(self.schema)
        if txn.is_write:
            return frozenset({self.placement.primary_of(subdb)})
        return self.placement.processors_holding(subdb)

    def estimate_cost(self, txn: Transaction) -> float:
        """Worst-case processing time of ``txn`` (host index estimate)."""
        return self.cost_model.estimate(txn).cost

    def to_task(self, txn: Transaction, deadline: float) -> Task:
        """Convert a transaction into the scheduler's task model."""
        estimate = self.cost_model.estimate(txn)
        if txn.is_write:
            tag = "update"
        else:
            tag = "indexed" if estimate.used_index else "scan"
        return Task(
            task_id=txn.txn_id,
            processing_time=estimate.cost,
            arrival_time=txn.arrival_time,
            deadline=deadline,
            affinity=self.affinity_of(txn),
            tag=tag,
        )

    # ----- node-facing views -------------------------------------------------

    def executor_for(self, processor: int) -> TransactionExecutor:
        """The executor a working processor runs over its local replicas."""
        local = {
            subdb: self.subdatabases[subdb]
            for subdb in self.placement.contents_of(processor)
        }
        return TransactionExecutor(schema=self.schema, subdatabases=local)

    def global_executor(self) -> TransactionExecutor:
        """An executor over every partition (estimation validation)."""
        return TransactionExecutor(
            schema=self.schema, subdatabases=self.subdatabases
        )
