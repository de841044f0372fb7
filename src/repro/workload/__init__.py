"""Workload generation: arrivals, deadlines, transactions, synthetic tasks."""

from .arrivals import (
    ARRIVAL_NAMES,
    ArrivalProcess,
    BatchedArrival,
    BurstyArrival,
    DiurnalArrival,
    LogNormalArrival,
    ParetoArrival,
    PoissonArrival,
    UniformArrival,
    make_arrival,
)
from .deadlines import (
    PAPER_DEADLINE_MULTIPLIER,
    DeadlinePolicy,
    ProportionalDeadline,
)
from .synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from .transactions import (
    TransactionWorkloadConfig,
    TransactionWorkloadGenerator,
)

__all__ = [
    "ARRIVAL_NAMES",
    "ArrivalProcess",
    "BatchedArrival",
    "BurstyArrival",
    "DeadlinePolicy",
    "DiurnalArrival",
    "LogNormalArrival",
    "ParetoArrival",
    "make_arrival",
    "PAPER_DEADLINE_MULTIPLIER",
    "PoissonArrival",
    "ProportionalDeadline",
    "SyntheticWorkloadConfig",
    "SyntheticWorkloadGenerator",
    "TransactionWorkloadConfig",
    "TransactionWorkloadGenerator",
    "UniformArrival",
]
