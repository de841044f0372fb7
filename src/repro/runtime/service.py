"""The service backend: open-loop load against a long-lived master.

Where the ``"cluster"`` backend replays the closed batch workload, this
backend stands up a :class:`~repro.service.master.ServiceMaster` with its
worker fleet and drives it with the in-process open-loop load generator:
the experiment's ``arrival``, ``offered_load`` and ``admission_policy``
fields pick the stream shape and the shedding policy, so a sweep grid
over those fields *is* a deadline-compliance-under-load study — every
cell caches, resumes, and exports exactly like any other experiment.

The master's report counts every submission in ``total_tasks``, so
``hit_ratio`` is compliance against *offered* load — shed and rejected
work is paid for, which is the honest way to compare shedding policies.
The client-side view (accepted/rejected/unsettled as the wire saw them)
rides along in ``extras`` under ``load_*`` keys.
"""

from __future__ import annotations

from dataclasses import replace

from .backend import ExecutionBackend, register_backend
from .report import RunReport


class ServiceBackend(ExecutionBackend):
    """Runs a cell as one service lifetime under open-loop load.

    Stateless between runs; not concurrency-safe with a pinned port (the
    sweep engine serializes service cells exactly like cluster cells).
    The run ends by going idle: the load thread submits its stream,
    every submission settles, the client disconnects, and the master
    drains.
    """

    name = "service"
    live = True

    def __init__(
        self,
        *,
        port: int = None,
        seconds_per_unit: float = None,
        heartbeat_interval: float = None,
        guarantee_margin_seconds: float = None,
        max_wall_seconds: float = None,
        failure=None,
        drain_grace_seconds: float = None,
        max_backlog_units: float = None,
        submissions: int = None,
        settle_grace_seconds: float = None,
    ) -> None:
        cluster_overrides = {
            "port": port,
            "seconds_per_unit": seconds_per_unit,
            "heartbeat_interval": heartbeat_interval,
            "guarantee_margin_seconds": guarantee_margin_seconds,
            "max_wall_seconds": max_wall_seconds,
            "failure": failure,
        }
        self._cluster_overrides = {
            key: value for key, value in cluster_overrides.items()
            if value is not None
        }
        service_overrides = {
            "drain_grace_seconds": drain_grace_seconds,
            "max_backlog_units": max_backlog_units,
        }
        self._service_overrides = {
            key: value for key, value in service_overrides.items()
            if value is not None
        }
        load_overrides = {
            "submissions": submissions,
            "settle_grace_seconds": settle_grace_seconds,
        }
        self._load_overrides = {
            key: value for key, value in load_overrides.items()
            if value is not None
        }

    def with_port(self, port: int) -> "ServiceBackend":
        """A copy whose master binds ``port`` (for sweep port leasing)."""
        clone = ServiceBackend()
        clone._cluster_overrides = {
            **self._cluster_overrides, "port": port
        }
        clone._service_overrides = dict(self._service_overrides)
        clone._load_overrides = dict(self._load_overrides)
        return clone

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
        """One service lifetime: serve, load, drain, report.

        Blocks for the whole stream plus settle; returns the master's
        report with the client-side tallies merged into ``extras``.
        """
        if evaluator is not None or quantum_policy is not None:
            raise NotImplementedError(
                "scheduler construction overrides (evaluator, "
                "quantum_policy) are simulator-only; the service master "
                "builds its scheduler from the registry name"
            )
        # Imported here for the same reasons as the cluster backend: keep
        # sockets/multiprocessing out of sim-only processes and break the
        # service -> experiments -> backend import cycle.
        from ..cluster.config import ClusterConfig
        from ..service.config import ServiceConfig
        from ..service.load import LoadSpec, run_load
        from ..service.server import run_service

        experiment = replace(
            config, base_seed=seed, runs=1, backend=self.name
        )
        cluster_config = ClusterConfig(
            experiment=experiment,
            scheduler_name=scheduler_name,
            **self._cluster_overrides,
        )
        service_config = ServiceConfig(
            cluster=cluster_config,
            admission_policy=experiment.admission_policy,
            stop_when_idle=True,
            **self._service_overrides,
        )
        spec = LoadSpec(
            experiment=experiment,
            arrival=experiment.arrival,
            offered_load=experiment.offered_load,
            seed=seed,
            seconds_per_unit=cluster_config.seconds_per_unit,
            **self._load_overrides,
        )
        holder = {}

        def _drive(host: str, port: int) -> None:
            holder["load"] = run_load(host, port, spec)

        report = run_service(
            service_config,
            instrumentation=instrumentation,
            drive_load=_drive,
        )
        load = holder.get("load")
        if load is not None:
            report.extras.update(
                load_submitted=load.submitted,
                load_accepted=load.accepted,
                load_rejected=load.rejected,
                load_unsettled=load.unsettled,
                load_hit_ratio=load.hit_ratio,
                load_reject_reasons=dict(load.reject_reasons),
            )
        report.extras.update(
            arrival=experiment.arrival,
            offered_load=experiment.offered_load,
        )
        return report


register_backend(ServiceBackend.name, ServiceBackend)
