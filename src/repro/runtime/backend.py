"""Execution backends: where a scheduled workload actually runs.

An :class:`ExecutionBackend` turns one ``(ExperimentConfig, scheduler,
seed)`` cell into a :class:`~repro.runtime.report.RunReport`.  Four names
ship with the repo — ``"sim"`` and ``"sharded"`` (one class: the
virtual-clock discrete-event simulator over ``config.domains`` scheduling
domains), ``"cluster"`` (the live TCP master/worker system) and
``"service"`` (the streaming scheduler service) — and the registry is
open: a future asyncio or process-pool backend registers a name and
every experiment, figure, and CLI flag can sweep it immediately.

Built-in backends load lazily: naming ``"cluster"`` must not drag socket
and multiprocessing machinery into simulation-only processes, and the
implementations import the experiment builders, which import this module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Union

from ..registry import Registry
from .report import RunReport

_BACKENDS: Registry[Callable[[], ExecutionBackend]] = Registry(
    "backend",
    {
        "sim": "repro.runtime.sim",
        "cluster": "repro.runtime.live",
        "service": "repro.runtime.service",
        "sharded": "repro.runtime.sim",
    },
)

#: The backends every installation has (CLI choices, config validation).
BACKEND_NAMES = _BACKENDS.builtin_names


class ExecutionBackend(ABC):
    """Runs one experiment cell somewhere and reports back uniformly."""

    #: Registry name; also stamped into every report's ``backend`` field.
    name: ClassVar[str] = ""

    #: A live backend spawns its own OS processes and binds a TCP listener
    #: per run, so the sweep engine runs its cells one at a time in the
    #: parent and never hands one to a pool child.
    live: ClassVar[bool] = False

    #: Whether a run's task set is exactly ``workload_tasks(config, seed)``,
    #: so the schedulability oracle can analyse it offline.  Backends that
    #: mint tasks at request time (the streaming service) say ``False`` and
    #: their reports carry an explicit ``unknown`` verdict instead.
    seeded_workload: bool = False

    @abstractmethod
    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
        validate_phases: bool = False,
        instrumentation=None,
    ) -> RunReport:
        """One full run of one cell with one seed.

        How a repetition departs from ``config`` is a fact of the backend
        *instance* (see :class:`repro.runtime.sim.SimBackend`'s variants),
        never a parameter of the call.
        """


def register_backend(
    name: str, factory: Callable[[], ExecutionBackend]
) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _BACKENDS.register(name, factory)


def get_backend(
    spec: Union[str, ExecutionBackend, None]
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to ``"sim"``, matching
    :attr:`ExperimentConfig.backend`'s default.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    return _BACKENDS.get(spec or "sim")()
