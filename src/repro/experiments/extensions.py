"""Extension experiments beyond the paper's evaluation section.

These exercise directions the paper points at but does not evaluate:

* :func:`extension_reclaiming` — X1, resource reclaiming (the paper's
  reference [3]): workers finish early relative to worst-case estimates and
  the runtime reclaims the slack.
* :func:`extension_load_sweep` — X2, an open system: Poisson transaction
  arrivals at increasing offered load instead of the single burst, probing
  where each algorithm's compliance collapses.
* :func:`extension_write_mix` — X3, read/write transaction mixes with
  primary-copy routing and index maintenance.
* :func:`extension_failures` — X4, fail-stop processor crashes with
  rescheduling of the surrendered queues.
* :func:`ablation_interconnect` — A4, drops the wormhole
  (distance-independent) communication assumption and replaces the constant
  ``C`` with store-and-forward costs over a 2-D mesh.
* :func:`service_curve` — X5, deadline compliance under open-loop load on
  the *live* streaming service: one service lifetime per cell, shedding
  policies compared across offered-load points.

All return :class:`~repro.experiments.figures.AblationResult`-style tables
(:func:`service_curve` returns a figure-bearing
:class:`~repro.experiments.figures.SweepResult`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..core.affinity import UniformCommunicationModel
from ..metrics.stats import mean
from ..runtime.sim import SimBackend
from ..simulator.execution import (
    FirstMatchDatabaseExecution,
    ScaledExecution,
    StochasticExecution,
)
from ..simulator.interconnect import MeshCommunicationModel, near_square_mesh
from ..workload.arrivals import PoissonArrival
from .config import OFFERED_LOAD_SWEEP, ExperimentConfig
from .figures import (
    DISPLAY_NAMES,
    AblationResult,
    SweepResult,
    _hit_percent,
    _run_sweep,
    _run_table,
    _scheduler_table,
)


def extension_write_mix(
    config: Optional[ExperimentConfig] = None,
    write_fractions: Sequence[float] = (0.0, 0.1, 0.25, 0.5),
) -> AblationResult:
    """X3: read/write transaction mixes (the paper assumed read-only).

    Update transactions are pinned to their partition's primary copy
    (primary-copy replication keeps replicas consistent and serializes
    same-partition writes through one FIFO queue), shrinking the workload's
    *effective* replication.  Two effects pull in opposite directions:
    pinning squeezes processor choice (hurting the sequence-oriented
    representation the way low replication does), while the paper's
    deadline rule ``SF * 10 * cost`` grants write transactions — whose
    worst-case cost includes the write work — proportionally more absolute
    laxity.  The table reports the net effect; RT-SADS dominance at every
    mix is the invariant the bench asserts.
    """
    config = config or ExperimentConfig.paper()
    return _scheduler_table(
        "X3 - Read/write transaction mix "
        f"(P={config.num_processors}, R={config.replication_rate:.0%}, "
        f"SF={config.slack_factor:g})",
        "write fraction",
        config,
        [
            (fraction, SimBackend(workload={"write_fraction": fraction}))
            for fraction in write_fractions
        ],
    )


# X1's execution-model factories, ``(database, transactions) -> model``;
# module-level so a cell carrying one pickles into a sweep worker.


def _worst_case(database, transactions):
    return None


def _scaled_half(database, transactions):
    return ScaledExecution(0.5)


def _stochastic(database, transactions):
    return StochasticExecution(0.2, 1.0, seed=7)


def extension_reclaiming(
    config: Optional[ExperimentConfig] = None,
) -> AblationResult:
    """Resource reclaiming: worst-case plans vs early-finishing execution.

    Compares RT-SADS under (a) worst-case execution, (b) uniformly early
    completion, (c) per-task stochastic completion, and (d) the real
    database's first-match early exit.  Reclaimed time feeds back into
    loads, so the self-adjusting quantum shortens and later batches gain.
    """
    config = config or ExperimentConfig.paper()
    models = [
        ("worst-case (paper)", _worst_case),
        ("scaled 50%", _scaled_half),
        ("stochastic U(0.2, 1.0)", _stochastic),
        ("first-match DB early exit", FirstMatchDatabaseExecution),
    ]
    return _run_table(
        title=(
            "X1 - Resource reclaiming (RT-SADS, "
            f"P={config.num_processors}, R={config.replication_rate:.0%}, "
            f"SF={config.slack_factor:g})"
        ),
        headers=["execution model", "hit ratio %", "reclaimed time",
                 "makespan"],
        rows=[
            (label, [(config, "rtsads", SimBackend(execution_model=factory))])
            for label, factory in models
        ],
        columns=[
            _hit_percent,
            lambda cell: mean(cell.reclaimed_times),
            lambda cell: mean(cell.makespans),
        ],
    )


def extension_load_sweep(
    config: Optional[ExperimentConfig] = None,
    load_factors: Sequence[float] = (0.4, 0.7, 1.0, 1.3, 1.6),
) -> AblationResult:
    """Open system: Poisson arrivals at a fraction of machine capacity.

    The paper's burst is the extreme overload point; this sweep shows each
    algorithm's compliance as offered load crosses capacity.  The arrival
    rate for load factor ``f`` is ``f * m / mean_cost``.
    """
    config = config or ExperimentConfig.paper()
    key_p = (
        config.key_probability if config.key_probability is not None else 0.55
    )
    mean_cost = key_p * 10.0 + (1.0 - key_p) * config.scan_cost
    return _scheduler_table(
        "X2 - Open-system load sweep (Poisson arrivals, "
        f"P={config.num_processors}, R={config.replication_rate:.0%})",
        "offered load",
        config,
        [
            (
                factor,
                SimBackend(
                    workload={
                        "arrivals": PoissonArrival(
                            rate=factor * config.num_processors / mean_cost
                        )
                    }
                ),
            )
            for factor in load_factors
        ],
    )


def extension_failures(
    config: Optional[ExperimentConfig] = None,
    failure_counts: Optional[Sequence[int]] = None,
) -> AblationResult:
    """X4: fail-stop processor crashes mid-run (fault-injection study).

    Crashes are spread across the first quarter of the workload's deadline
    horizon; each kills the in-flight task and sends queued work back to
    the host for rescheduling on the survivors.  Dynamic scheduling's
    headline virtue — routing around current machine state — predicts
    graceful degradation roughly proportional to lost capacity.
    """
    config = config or ExperimentConfig.paper()
    if failure_counts is None:
        # Default sweep: up to 3 crashes, always leaving survivors.
        failure_counts = tuple(
            range(min(3, config.num_processors - 1) + 1)
        )
    if max(failure_counts, default=0) >= config.num_processors:
        raise ValueError("cannot fail every processor in the study")
    horizon = 10.0 * config.slack_factor * config.scan_cost
    return _scheduler_table(
        "X4 - Fail-stop processor crashes "
        f"(P={config.num_processors}, R={config.replication_rate:.0%}, "
        f"SF={config.slack_factor:g})",
        "processors failed",
        config,
        [
            (
                count,
                SimBackend(
                    failures=[
                        (horizon * 0.25 * (i + 1) / max(1, count), i)
                        for i in range(count)
                    ]
                ),
            )
            for count in failure_counts
        ],
    )


def ablation_interconnect(
    config: Optional[ExperimentConfig] = None,
) -> AblationResult:
    """A4: wormhole constant-C vs store-and-forward mesh communication.

    The paper justifies the constant ``C`` with cut-through routing; this
    ablation re-runs the main comparison with per-hop mesh costs whose
    machine-wide mean matches ``C``, checking the conclusions do not hinge
    on the routing assumption.
    """
    config = config or ExperimentConfig.paper()
    mesh = near_square_mesh(config.num_processors)
    # Calibrate per-hop cost so an average remote access costs about C.
    mean_hops = max(1.0, (mesh.diameter() + 1) / 3.0)
    comm_models = [
        (
            "wormhole constant C (paper)",
            UniformCommunicationModel(config.remote_cost),
        ),
        (
            f"store-and-forward mesh {mesh.rows}x{mesh.cols}",
            MeshCommunicationModel(
                per_hop_cost=config.remote_cost / mean_hops, topology=mesh
            ),
        ),
    ]
    return _scheduler_table(
        "A4 - Interconnect model "
        f"(P={config.num_processors}, R={config.replication_rate:.0%})",
        "communication model",
        config,
        [(label, SimBackend(comm=comm)) for label, comm in comm_models],
    )


#: The shedding policies X5 compares: the default against the deadline-aware.
SERVICE_CURVE_POLICIES = ("reject-newest", "least-slack")


def service_curve(config: Optional[ExperimentConfig] = None) -> SweepResult:
    """X5: deadline compliance under open-loop load, live service mode.

    One cell = one full service lifetime: master + worker fleet + the
    in-process load generator at the cell's offered load, ended by idle
    drain.  Compliance is measured against *offered* load (rejected and
    shed submissions count as misses), so the curves answer the question
    a shedding policy exists for: how much of what was asked for was
    delivered on time as the stream crosses capacity.

    Every cell is a plain ``ExperimentConfig`` on the ``service`` backend,
    so the figure runs and exports like every other one (a live
    backend's cells run one at a time in the parent; ``--jobs`` fan-out
    does not apply).
    """
    config = config or ExperimentConfig.quick()
    scheduler = config.scheduler or "rtsads"
    loads = OFFERED_LOAD_SWEEP
    # A sustained stream: the config's default "burst" drops the whole
    # workload at t=0, which probes overload recovery, not offered load.
    base = replace(config, backend="service", arrival="poisson")
    return _run_sweep(
        title=(
            "X5 - Compliance under open-loop load, live service "
            f"(P={base.num_processors}, {base.arrival} arrivals, "
            f"{DISPLAY_NAMES.get(scheduler, scheduler)})"
        ),
        x_label="offered load",
        x_values=loads,
        series=[
            (
                policy,
                policy,
                [
                    (
                        base.with_admission_policy(policy).with_offered_load(x),
                        scheduler,
                    )
                    for x in loads
                ],
            )
            for policy in SERVICE_CURVE_POLICIES
        ],
        notes=[
            "y values are deadline hits as % of *submitted* work "
            f"over {base.runs} service lifetime(s) per cell",
            "shed and rejected submissions count as misses",
        ],
    )
