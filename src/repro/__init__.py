"""repro: reproduction of Atif & Hamidzadeh, ICDCS 1998.

"A Scalable Scheduling Algorithm for Real-Time Distributed Systems" —
RT-SADS (assignment-oriented, self-adjusting dynamic scheduling) vs D-COLS
(sequence-oriented), evaluated on a simulated distributed-memory
multiprocessor running a distributed real-time database.

Quickstart::

    from repro import RTSADS, UniformCommunicationModel, simulate
    from repro.workload import SyntheticWorkloadGenerator

    comm = UniformCommunicationModel(remote_cost=50.0)
    tasks = SyntheticWorkloadGenerator().generate()
    result = simulate(RTSADS(comm), tasks, num_workers=4)
    print(result.summary())

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from .core import (
    DCOLS,
    RTSADS,
    GreedyEDFScheduler,
    MyopicScheduler,
    RandomScheduler,
    Schedule,
    Scheduler,
    SelfAdjustingQuantum,
    Task,
    TaskSet,
    UniformCommunicationModel,
    make_task,
)
from .runtime import (
    BACKEND_NAMES,
    ExecutionBackend,
    RunReport,
    get_backend,
    register_backend,
)
from .simulator import DistributedRuntime, simulate

__version__ = "1.0.0"

__all__ = [
    "BACKEND_NAMES",
    "DCOLS",
    "DistributedRuntime",
    "ExecutionBackend",
    "GreedyEDFScheduler",
    "MyopicScheduler",
    "RTSADS",
    "RandomScheduler",
    "RunReport",
    "Schedule",
    "Scheduler",
    "SelfAdjustingQuantum",
    "Task",
    "TaskSet",
    "UniformCommunicationModel",
    "__version__",
    "get_backend",
    "make_task",
    "register_backend",
    "simulate",
]
