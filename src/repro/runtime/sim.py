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
from .backend import ExecutionBackend, get_backend, register_backend
from .report import RunReport


class SimBackend(ExecutionBackend):
    """Runs a cell on the discrete-event simulator.

    ``variant`` is how every repetition of this instance departs from the
    paper's machine — the substitutions the ablation and extension tables
    make, held the way :class:`~repro.runtime.live.ClusterBackend` holds
    its deployment overrides.  A backend built by name carries none.
    """

    #: The substitutions, each with the experiments that vary it.
    VARIANTS = (
        "quantum_policy",   # A1: the scheduler's QuantumPolicy
        "evaluator",        # A2: the search's VertexEvaluator
        "comm",             # A4: the CommunicationModel (one domain only)
        "max_candidates",   # A5: the candidate-list bound (None = unbounded)
        "execution_model",  # X1: factory(database, transactions) -> model
        "workload",         # X2, X3: build_seeded_workload keywords
        "failures",         # X4: (time, processor) fail-stop crashes
    )

    def __init__(self, name: str = "sim", **variant) -> None:
        unknown = sorted(set(variant).difference(self.VARIANTS))
        if unknown:
            raise TypeError(
                f"unknown simulator variant {unknown}; "
                f"choose from {list(self.VARIANTS)}"
            )
        self.name = name
        self.variant = variant
        #: A variant that builds its own workload, or lets tasks finish
        #: early, runs a task set the offline oracle did not see.
        self.seeded_workload = not (
            "workload" in variant or "execution_model" in variant
        )

    def require(self, config) -> None:
        """Refuse, by ``ValueError``, a config this variant cannot honour."""
        if not isinstance(get_backend(config.backend), SimBackend):
            raise ValueError(
                f"backend {config.backend!r} cannot run a cell that varies "
                f"the simulator ({', '.join(self.variant)}); use 'sim' or "
                "'sharded'"
            )
        if "comm" in self.variant and config.domains > 1:
            raise ValueError(
                "a substituted communication model is indexed by global "
                "processor id and cannot be honoured over "
                f"{config.domains} scheduling domains; use --domains 1"
            )

    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
        validate_phases: bool = False,
        instrumentation=None,
    ) -> RunReport:
        """Simulate one repetition on the virtual clock.

        Takes the workload of ``seed`` from the process-wide memo
        (:func:`repro.experiments.runner.workload_tasks`) — or builds the
        variant's own — runs the discrete-event loop, and returns its
        :class:`RunReport`; every time in the report is virtual quanta
        except ``wall_seconds``, which is the simulation's real CPU time.
        Deterministic per ``(config, seed, variant)``.  The backend holds
        no state beyond its variant and the memo is locked, so one
        ``SimBackend`` may be shared by any number of threads or sweep
        worker processes; everything else a run builds (communication
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
        from ..workload.transactions import build_seeded_workload

        variant = self.variant
        if variant:
            self.require(config)
        comm = variant.get("comm") or UniformCommunicationModel(
            remote_cost=config.remote_cost
        )
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
        if self.seeded_workload:
            tasks = workload_tasks(config, seed)
        else:
            database, tasks, transactions = build_seeded_workload(
                config, seed, **variant.get("workload", {})
            )
            if "execution_model" in variant:
                run_options["execution_model"] = variant["execution_model"](
                    database, transactions
                )
        if "failures" in variant:
            run_options["failures"] = variant["failures"]

        def new_scheduler():
            """One scheduler of this run, as the variant builds it."""
            scheduler = build_scheduler(
                scheduler_name, config, comm,
                evaluator=variant.get("evaluator"),
                quantum_policy=variant.get("quantum_policy"),
            )
            if "max_candidates" in variant:
                scheduler.max_candidates = variant["max_candidates"]
            return scheduler

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
