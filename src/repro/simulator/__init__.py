"""Distributed-memory multiprocessor simulator (the Paragon substitute).

A discrete-event simulation of the paper's deployment: ``m`` working
processors with private memories execute non-preemptable tasks from FIFO
ready queues while a dedicated host processor runs scheduling phases
concurrently.  See DESIGN.md Section 2 for the substitution rationale.
"""

from .engine import SimulationEngine, SimulationError, SimulationObserver
from .events import (
    EventQueue,
    HostWake,
    ProcessorFailed,
    ScheduleDelivered,
    TaskArrived,
    TaskFinished,
)
from .execution import (
    ExecutionModelError,
    ExecutionTimeModel,
    FirstMatchDatabaseExecution,
    ScaledExecution,
    StochasticExecution,
    resolve_actual_cost,
)
from .interconnect import (
    MeshCommunicationModel,
    MeshTopology,
    near_square_mesh,
)
from .processor import QueuedWork, RunningWork, WorkerProcessor
from .runtime import (
    MAX_EVENTS,
    DistributedRuntime,
    DomainHost,
    simulate,
)

__all__ = [
    "MAX_EVENTS",
    "DistributedRuntime",
    "DomainHost",
    "EventQueue",
    "ExecutionModelError",
    "ExecutionTimeModel",
    "FirstMatchDatabaseExecution",
    "ScaledExecution",
    "StochasticExecution",
    "resolve_actual_cost",
    "HostWake",
    "MeshCommunicationModel",
    "MeshTopology",
    "ProcessorFailed",
    "QueuedWork",
    "RunningWork",
    "ScheduleDelivered",
    "SimulationEngine",
    "SimulationError",
    "SimulationObserver",
    "TaskArrived",
    "TaskFinished",
    "WorkerProcessor",
    "near_square_mesh",
    "simulate",
]
