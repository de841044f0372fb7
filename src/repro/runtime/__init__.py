"""Backend-neutral runtime core: one phase loop, many execution backends.

This package is the seam between *what the paper's algorithm does* and
*where it runs*:

* :class:`PhaseDriver` — the shared on-line scheduling loop (admission,
  expiry, quantum allocation, feasibility search, delivery bookkeeping,
  guarantee accounting, failure remap), parameterized by
  :class:`PhaseHooks`;
* :class:`ExecutionBackend` + :func:`get_backend` — the registry through
  which experiments dispatch a cell to the simulator (``"sim"``), the
  live TCP cluster (``"cluster"``), or any backend registered later;
* :class:`TaskLedger` + :class:`TaskRecord` — the one place a task's
  lifecycle is written, on every backend (:mod:`repro.runtime.ledger`,
  which also holds the status and transition vocabulary);
* :class:`RunReport` — the single report schema every backend produces.

The concrete backends (:mod:`repro.runtime.sim`,
:mod:`repro.runtime.live`, :mod:`repro.runtime.service`) are deliberately *not* imported here: they
load lazily through :func:`get_backend` so simulation-only processes
never touch sockets or multiprocessing, and so the import graph stays
acyclic (the backends import the experiment builders, which import this
package).
"""

from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    get_backend,
    register_backend,
)
from .driver import OpenPhase, PhaseDriver, PhaseHooks, PhaseTrace
from .ledger import TaskLedger, TaskRecord
from .report import RunReport

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "OpenPhase",
    "PhaseDriver",
    "PhaseHooks",
    "PhaseTrace",
    "RunReport",
    "TaskLedger",
    "TaskRecord",
    "get_backend",
    "register_backend",
]
