"""Scheduler registry: every scheduling policy the repo can run.

One :class:`repro.registry.Registry`, like the execution backends in
``runtime/backend.py``: built-in schedulers load lazily (naming
``"rtsads"`` must not import the zoo, and vice versa), third parties call
:func:`register_scheduler` with a builder, and every experiment, figure,
backend, and CLI flag can sweep any registered name immediately.

A builder receives a :class:`SchedulerContext` — the frozen bag of
construction inputs the experiment layer knows about — and returns a
:class:`~repro.core.scheduler.Scheduler`; every built-in registers its
class's :meth:`~repro.core.scheduler.Scheduler.from_context`.  Keeping the context in
``core/`` means builders never import the experiment layer, so the
dependency arrow stays ``experiments -> core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..registry import Registry
from .affinity import CommunicationModel
from .scheduler import DEFAULT_PER_VERTEX_COST, Scheduler

#: Declaration order is meaningful: the first five entries preserve the
#: historical ``SCHEDULER_NAMES`` tuple (golden fixtures, docs, and CLI
#: help all enumerate in this order).
_SCHEDULERS: Registry[Callable[[SchedulerContext], Scheduler]] = Registry(
    "scheduler",
    {
        "rtsads": "repro.core.rtsads",
        "dcols": "repro.core.dcols",
        "greedy_edf": "repro.core.baselines",
        "myopic": "repro.core.baselines",
        "random": "repro.core.baselines",
        "edf": "repro.core.zoo",
        "partitioned-edf": "repro.core.zoo",
        "candidate-sort": "repro.core.zoo",
    },
)

#: The schedulers every installation has (CLI choices, config validation).
SCHEDULER_NAMES = _SCHEDULERS.builtin_names


@dataclass(frozen=True)
class SchedulerContext:
    """Construction inputs a scheduler builder may draw from.

    ``evaluator`` and ``quantum_policy`` are the ablation overrides; the
    search schedulers (RT-SADS, D-COLS) honour both, the one-pass list
    schedulers take only the quantum policy — same contract the old
    if-chain in ``experiments/runner.py`` implemented.
    """

    comm: CommunicationModel
    per_vertex_cost: float = DEFAULT_PER_VERTEX_COST
    evaluator: Optional[object] = None
    quantum_policy: Optional[object] = None


def register_scheduler(
    name: str, builder: Callable[[SchedulerContext], Scheduler]
) -> None:
    """Register (or replace) a scheduler builder under ``name``."""
    _SCHEDULERS.register(name, builder)


def make_scheduler(name: str, context: SchedulerContext) -> Scheduler:
    """Instantiate a registered scheduler from a context."""
    return _SCHEDULERS.get(name)(context)


def registered_names() -> tuple:
    """Every currently resolvable name: built-ins plus third-party."""
    return _SCHEDULERS.names()
