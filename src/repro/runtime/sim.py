"""The simulator backend: the virtual-clock discrete-event machine.

This is the default backend and the paper's own evaluation vehicle.  It
builds the seeded database/workload and the named scheduler (one instance
per scheduling domain) exactly the way :mod:`repro.experiments.runner`
always has, runs one :class:`~repro.simulator.runtime.DistributedRuntime`
over ``config.domains`` domains, and returns its
:class:`~repro.runtime.report.RunReport`.

One class serves both registry names: ``"sim"`` and ``"sharded"`` differ
only in the label a one-domain report carries (``domains > 1`` always
reports as ``"sharded"``), so the shard curve compares k=1 against k>1
inside one runtime's physics.
"""

from __future__ import annotations

from functools import partial

from ..observability import get_instrumentation
from .backend import ExecutionBackend, register_backend
from .report import RunReport


class SimBackend(ExecutionBackend):
    """Runs a cell on the discrete-event simulator."""

    seeded_workload = True

    def __init__(self, name: str = "sim") -> None:
        self.name = name

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
        """Simulate one repetition on the virtual clock.

        Takes the workload of ``seed`` from the process-wide memo
        (:func:`repro.experiments.runner.workload_tasks`), runs the
        discrete-event loop, and returns its :class:`RunReport`; every time
        in the report is virtual quanta except ``wall_seconds``, which is
        the simulation's real CPU time.  Deterministic per ``(config,
        seed)``.  The backend itself holds no state and the memo is locked,
        so one ``SimBackend`` may be shared by any number of threads or
        sweep worker processes; everything else a run builds (communication
        model, schedulers, runtime) is its own and dies with it.
        """
        # Imported here, not at module level: the experiment builders
        # import the backend registry, so the arrow must point one way at
        # import time.
        from ..core.affinity import UniformCommunicationModel
        from ..core.domains import partition_workers
        from ..experiments.runner import build_scheduler, workload_tasks
        from ..sharding.migration import MigrationStats
        from ..simulator.runtime import DistributedRuntime, simulate

        comm = UniformCommunicationModel(remote_cost=config.remote_cost)
        tasks = workload_tasks(config, seed)
        obs = (
            instrumentation
            if instrumentation is not None
            else get_instrumentation()
        )
        run_options = dict(
            validate_phases=validate_phases,
            instrumentation=obs.bind(seed=seed) if obs.enabled else None,
            seed=seed,
        )

        new_scheduler = partial(
            build_scheduler, scheduler_name, config, comm,
            evaluator=evaluator, quantum_policy=quantum_policy,
        )

        if config.domains == 1:
            # The paper's machine — one host over all m workers — is
            # exactly what simulate() builds.
            report = simulate(
                new_scheduler(), tasks, config.num_processors, **run_options
            )
            if self.name != report.backend:
                # Asked for by name: a one-domain "sharded" report keeps
                # that label and its (necessarily all-zero) ledger.
                report.backend = self.name
                report.migration = MigrationStats().as_section()
            return report
        assignment = partition_workers(
            config.num_processors, config.domains, config.partition_policy,
            tasks=tasks,
        )
        return DistributedRuntime(
            [new_scheduler() for _ in assignment.domains],
            assignment,
            tasks,
            config.remote_cost,
            **run_options,
        ).run()


register_backend("sim", SimBackend)
register_backend("sharded", partial(SimBackend, "sharded"))
