"""Streaming service mode: a long-lived RT-SADS scheduler on the wire.

Where :mod:`repro.cluster` runs one closed batch to completion, this
package puts a front on the same master and keeps it alive under
*open-loop* load: clients stream ``SUBMIT`` frames over the same TCP
protocol (v3), the admission layer applies backpressure and overload
shedding (:mod:`~repro.service.admission`), workers join and leave
mid-run, and every accepted submission is answered with exactly one
terminal ``RESULT`` — even through a SIGTERM drain.

Entry points
------------
:func:`run_service`           run one service end to end (master + fleet).
:func:`run_load`              open-loop load generator / client.
:class:`ServiceConfig`        service knobs around a ``ClusterConfig``.
:class:`ServiceFront`         admission, results and drain on one master.
:func:`build_policy`          admission-policy registry.

The CLI surface is ``repro serve`` and ``repro load``.

Only the admission registry is imported eagerly: the experiment-config
layer validates ``admission_policy`` fields against it, so everything
heavier (master, networking, multiprocessing) loads lazily on first
attribute access to keep that import cycle-free.
"""

from __future__ import annotations

from .admission import (
    ADMISSION_POLICY_NAMES,
    AdmissionPolicy,
    AdmissionState,
    Decision,
    QueuedTask,
    build_policy,
)

#: Lazily imported public names -> defining submodule.
_LAZY = {
    "JoinPlan": "config",
    "ServiceConfig": "config",
    "ServiceFront": "master",
    "ServiceClient": "client",
    "LoadReport": "load",
    "LoadSpec": "load",
    "run_load": "load",
    "run_service": "server",
}

__all__ = [
    "ADMISSION_POLICY_NAMES",
    "AdmissionPolicy",
    "AdmissionState",
    "Decision",
    "QueuedTask",
    "build_policy",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """PEP 562 lazy loader for the heavy service modules."""
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
