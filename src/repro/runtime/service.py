"""The service backend: open-loop load against a long-lived master.

Where the ``"cluster"`` backend replays the closed batch workload, this
backend stands up a master behind a
:class:`~repro.service.master.ServiceFront`, with its worker fleet, and
drives it with the in-process open-loop load generator:
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

from .backend import register_backend
from .live import ClusterBackend
from .report import RunReport


class ServiceBackend(ClusterBackend):
    """Runs a cell as one service lifetime under open-loop load.

    The same fleet deployment as :class:`ClusterBackend` (one mapping of
    ``ClusterConfig`` overrides) with a service front on its master.
    Stateless between runs; not concurrency-safe with a pinned port.  The
    run ends by going idle: the load thread submits its stream, every
    submission settles, the client disconnects, and the service drains.
    """

    name = "service"
    #: Tasks are minted at request time, so no offline oracle applies.
    seeded_workload = False

    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
        validate_phases: bool = False,
        instrumentation=None,
    ) -> RunReport:
        """One service lifetime: serve, load, drain, report.

        Blocks for the whole stream plus settle; returns the master's
        report with the client-side tallies merged into ``extras``.
        """
        cluster_config = self.cluster_config(config, scheduler_name, seed)
        experiment = cluster_config.experiment
        # Imported here for the same reasons as the cluster backend.
        from ..service.config import ServiceConfig
        from ..service.load import LoadSpec, run_load
        from ..service.server import run_service

        service_config = ServiceConfig(
            cluster=cluster_config,
            admission_policy=experiment.admission_policy,
            stop_when_idle=True,
        )
        spec = LoadSpec(
            experiment=experiment,
            arrival=experiment.arrival,
            offered_load=experiment.offered_load,
            seed=seed,
            seconds_per_unit=cluster_config.seconds_per_unit,
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
