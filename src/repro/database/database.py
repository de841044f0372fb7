"""The distributed database facade: build, place, estimate, convert.

Assembles the pieces — schema, generated sub-databases, hash partitioning,
replica placement, global index, cost model — into the object the workload
generator and experiments use, and converts transactions into the scheduler's
:class:`~repro.core.task.Task` model (affinity = processors holding the
target sub-database, processing time = worst-case estimated cost).

A seed alone fixes the rows and the index (:class:`PopulatedDatabase`), and
with them every transaction's estimate, deadline and tag
(:class:`TaskDraft`); replica placement, the one piece that reads ``m`` and
``R``, completes a :class:`DistributedDatabase` and each draft's affinity.
It continues the row generator where the rows left it
(:func:`placement_after`), whoever builds the database.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

from ..core.task import Task
from .cost_model import CostEstimate, TransactionCostModel
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


def placement_after(
    rng_state: tuple,
    num_subdatabases: int,
    num_processors: int,
    replication_rate: float,
) -> ReplicaPlacement:
    """The replica placement of a seeded database on ``(m, R)``.

    ``rng_state`` is the row generator's state after
    :meth:`PopulatedDatabase.populate` drew the rows; placement continues
    that stream from a copy, so one state places every ``(m, R)``.
    """
    rng = random.Random(0)
    rng.setstate(rng_state)
    return place_replicas(
        num_subdatabases=num_subdatabases,
        num_processors=num_processors,
        replication_rate=replication_rate,
        rng=rng,
    )


class TaskDraft(NamedTuple):
    """A transaction's task fields that replica placement does not touch.

    Everything :meth:`DistributedDatabase.to_task` writes but the affinity,
    plus the two facts the affinity is read from (the target sub-database
    and whether the transaction writes).  A draft holds no transaction and
    no row: it is what a seeded workload keeps of each transaction while
    ``m`` and ``R`` vary (:class:`~repro.workload.transactions.SeededDraw`).
    """

    task_id: int
    arrival_time: float
    processing_time: float
    deadline: float
    tag: str
    subdb: int
    is_write: bool

    def place(self, placement: ReplicaPlacement) -> Task:
        """The scheduler's task once ``placement`` says where the data is."""
        return Task(
            task_id=self.task_id,
            processing_time=self.processing_time,
            arrival_time=self.arrival_time,
            deadline=self.deadline,
            affinity=placement.affinity(self.subdb, self.is_write),
            tag=self.tag,
        )


class PopulatedDatabase:
    """Rows and host index: the part of a database its seed alone fixes.

    A transaction's cost estimate, deadline and tag read only this part;
    replica placement, the one part that depends on ``m`` and ``R``, is
    added by :meth:`placed`.
    """

    def __init__(
        self,
        config: DatabaseConfig,
        schema: Schema,
        subdatabases: Dict[int, SubDatabase],
        index: GlobalIndex,
    ) -> None:
        self.config = config
        self.schema = schema
        self.subdatabases = subdatabases
        self.index = index
        self.cost_model = TransactionCostModel(
            schema=schema,
            index=index,
            records_per_subdb=config.records_per_subdb,
        )

    @classmethod
    def populate(
        cls, config: DatabaseConfig, rng: random.Random
    ) -> "PopulatedDatabase":
        """Generate every sub-database's rows from ``rng`` and index them."""
        schema = config.make_schema()
        subdatabases = {
            subdb: generate_subdatabase(
                subdb, schema, config.records_per_subdb, rng
            )
            for subdb in range(config.num_subdatabases)
        }
        index = GlobalIndex.build(schema, subdatabases.values())
        return cls(config, schema, subdatabases, index)

    def placed(self, placement: ReplicaPlacement) -> "DistributedDatabase":
        """This database with its replicas laid out by ``placement``."""
        return DistributedDatabase(
            config=self.config,
            schema=self.schema,
            subdatabases=self.subdatabases,
            placement=placement,
            index=self.index,
        )

    def estimate_cost(self, txn: Transaction) -> float:
        """Worst-case processing time of ``txn`` (host index estimate).

        A convenience for tests and examples; a workload estimates each
        transaction once, in :meth:`TransactionWorkloadGenerator.drafts`.
        """
        return self.cost_model.estimate(txn).cost

    def draft(
        self, txn: Transaction, deadline: float, estimate: CostEstimate
    ) -> TaskDraft:
        """``txn``'s task fields but the affinity, from its ``estimate``
        (the one its deadline was derived from)."""
        if txn.is_write:
            tag = "update"
        else:
            tag = "indexed" if estimate.used_index else "scan"
        return TaskDraft(
            task_id=txn.txn_id,
            arrival_time=txn.arrival_time,
            processing_time=estimate.cost,
            deadline=deadline,
            tag=tag,
            subdb=estimate.target_subdb,
            is_write=txn.is_write,
        )


class DistributedDatabase(PopulatedDatabase):
    """A populated, partitioned, replicated database plus its host index."""

    def __init__(
        self,
        config: DatabaseConfig,
        schema: Schema,
        subdatabases: Dict[int, SubDatabase],
        placement: ReplicaPlacement,
        index: GlobalIndex,
    ) -> None:
        super().__init__(config, schema, subdatabases, index)
        self.placement = placement
        self.partitioner = IntervalHashPartitioner(schema)

    @classmethod
    def build(
        cls,
        config: Optional[DatabaseConfig] = None,
        num_processors: int = 10,
        replication_rate: float = 0.3,
        rng: Optional[random.Random] = None,
    ) -> "DistributedDatabase":
        """Generate data, place replicas, and build the global index.

        Replica placement continues ``rng``'s stream where the rows left
        it (:func:`placement_after`), the same two steps a seeded
        workload takes.  Tests and examples build their databases here;
        the experiments go through
        :func:`~repro.workload.transactions.build_seeded_workload`.
        """
        config = config or DatabaseConfig()
        rng = rng or random.Random(0)
        populated = PopulatedDatabase.populate(config, rng)
        return populated.placed(
            placement_after(
                rng.getstate(),
                config.num_subdatabases,
                num_processors,
                replication_rate,
            )
        )

    # ----- scheduler-facing views -------------------------------------------

    def affinity_of(self, txn: Transaction) -> frozenset:
        """Processors whose local memory can serve ``txn`` without transfer
        (:meth:`~repro.database.replication.ReplicaPlacement.affinity`)."""
        return self.placement.affinity(
            txn.target_subdb(self.schema), txn.is_write
        )

    def to_task(self, txn: Transaction, deadline: float) -> Task:
        """Convert a transaction into the scheduler's task model.

        The one-transaction form of a workload's draft-then-place, for
        tests and examples.
        """
        estimate = self.cost_model.estimate(txn)
        return self.draft(txn, deadline, estimate).place(self.placement)

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
