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

import importlib
from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Dict, Optional, Union

from .report import RunReport

#: name -> module that registers it on import.
_BUILTIN_MODULES = {
    "sim": "repro.runtime.sim",
    "cluster": "repro.runtime.live",
    "service": "repro.runtime.service",
    "sharded": "repro.runtime.sim",
}

#: The backends every installation has (CLI choices, config validation).
BACKEND_NAMES = tuple(_BUILTIN_MODULES)

_REGISTRY: Dict[str, Callable[[], "ExecutionBackend"]] = {}


class ExecutionBackend(ABC):
    """Runs one experiment cell somewhere and reports back uniformly."""

    #: Registry name; also stamped into every report's ``backend`` field.
    name: ClassVar[str] = ""

    @abstractmethod
    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
        evaluator=None,
        quantum_policy=None,
        validate_phases: bool = False,
        instrumentation=None,
    ) -> RunReport:
        """One full run of one cell with one seed.

        ``evaluator``/``quantum_policy`` are scheduler construction
        overrides (the ablation studies); backends that cannot honor them
        must raise rather than silently ignore them.
        """


def register_backend(
    name: str, factory: Callable[[], ExecutionBackend]
) -> None:
    """Register (or replace) a backend factory under ``name``."""
    if not name:
        raise ValueError("backend name must be a non-empty string")
    _REGISTRY[name] = factory


def get_backend(
    spec: Union[str, ExecutionBackend, None]
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to ``"sim"``, matching
    :attr:`ExperimentConfig.backend`'s default.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    name = spec or "sim"
    if name not in _REGISTRY:
        module = _BUILTIN_MODULES.get(name)
        if module is None:
            known = sorted(set(_REGISTRY) | set(_BUILTIN_MODULES))
            raise ValueError(
                f"unknown backend {name!r}; choose from {known}"
            )
        importlib.import_module(module)  # module registers itself
    return _REGISTRY[name]()
