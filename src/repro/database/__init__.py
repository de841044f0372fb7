"""Distributed real-time database: the paper's evaluation application.

A global relational database hash-partitioned into sub-databases with
disjoint attribute domains, replicated onto processor-local memories at a
configurable rate, queried by read-only transactions whose worst-case cost
the host estimates from a global index file.
"""

from .cost_model import (
    CHECK_COST,
    WRITE_COST_FACTOR,
    CostEstimate,
    TransactionCostModel,
)
from .database import DatabaseConfig, DistributedDatabase
from .executor import (
    ExecutionOutcome,
    LockAcquisitionBlocked,
    TransactionExecutor,
)
from .index import GlobalIndex, IndexEntry
from .locks import LockError, LockManager, LockMode
from .partition import (
    IntervalHashPartitioner,
    ModuloHashPartitioner,
    Partitioner,
)
from .replication import ReplicaPlacement, place_replicas
from .schema import (
    DEFAULT_DOMAIN_SIZE,
    DEFAULT_KEY_ATTRIBUTE,
    DEFAULT_NUM_ATTRIBUTES,
    Domain,
    Schema,
)
from .table import (
    DEFAULT_RECORDS_PER_SUBDB,
    SubDatabase,
    generate_subdatabase,
)
from .transaction import Transaction, UpdateTransaction

__all__ = [
    "CostEstimate",
    "CHECK_COST",
    "LockAcquisitionBlocked",
    "LockError",
    "LockManager",
    "LockMode",
    "UpdateTransaction",
    "WRITE_COST_FACTOR",
    "DEFAULT_DOMAIN_SIZE",
    "DEFAULT_KEY_ATTRIBUTE",
    "DEFAULT_NUM_ATTRIBUTES",
    "DEFAULT_RECORDS_PER_SUBDB",
    "DatabaseConfig",
    "DistributedDatabase",
    "Domain",
    "ExecutionOutcome",
    "GlobalIndex",
    "IndexEntry",
    "IntervalHashPartitioner",
    "ModuloHashPartitioner",
    "Partitioner",
    "ReplicaPlacement",
    "Schema",
    "SubDatabase",
    "Transaction",
    "TransactionCostModel",
    "TransactionExecutor",
    "generate_subdatabase",
    "place_replicas",
]
