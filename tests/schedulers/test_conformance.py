"""Cross-scheduler conformance: invariants every registry entry must hold.

Parametrized over *every* registered scheduler so a new registration is
conformance-tested by construction.  The battery:

* **feasible dispatch** — no phase ever emits an entry whose completion
  bound violates the task's deadline (``validate_phases`` re-checks every
  schedule against the phase feasibility bound, and the runtime's
  guaranteed-violation count must stay zero under the accurate execution
  model);
* **guarantees never silently dropped** — every admitted task reaches
  exactly one terminal state, and the terminal counts reconcile;
* **determinism** — the same (workload, seed) yields a bit-identical
  run, full-precision floats included;
* **oracle soundness** — no scheduler beats the offline schedulability
  oracle's clairvoyant hits upper bound, on any workload shape;
* **sim/cluster agreement** — the live TCP backend runs the same
  workload with the same accounting identities (one fast smoke here;
  the full matrix is ``slow``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.schedulability import FEASIBLE, analyze_tasks
from repro.core import Scheduler, UniformCommunicationModel
from repro.core.registry import (
    SCHEDULER_NAMES,
    SchedulerContext,
    make_scheduler,
    registered_names,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_once
from repro.simulator import simulate

from ..differential.harness import simulation_fingerprint
from .workloads import WORKLOADS

ALL_SCHEDULERS = tuple(registered_names())
SEEDS = (0, 1)
WORKERS = 4
REMOTE_COST = 50.0


def build(name: str):
    """A fresh scheduler instance by registry name."""
    return make_scheduler(
        name,
        SchedulerContext(comm=UniformCommunicationModel(REMOTE_COST)),
    )


def run(name: str, workload_name: str, seed: int):
    """One validated simulation of one scheduler over one seeded workload."""
    tasks = WORKLOADS[workload_name](seed, num_processors=WORKERS)
    return (
        tasks,
        simulate(
            build(name),
            list(tasks),
            num_workers=WORKERS,
            validate_phases=True,
        ),
    )


class TestRegistry:
    def test_at_least_four_schedulers_registered(self):
        assert len(ALL_SCHEDULERS) >= 4

    def test_required_names_present(self):
        required = {"rtsads", "edf", "partitioned-edf", "candidate-sort"}
        assert required <= set(ALL_SCHEDULERS)

    def test_builtin_names_constant_matches_registry(self):
        assert set(SCHEDULER_NAMES) <= set(ALL_SCHEDULERS)

    def test_every_name_builds_a_named_scheduler(self):
        names = [build(name).name for name in ALL_SCHEDULERS]
        assert all(names)
        # Display names are distinct: reports must identify the scheduler.
        assert len(set(names)) == len(names)

    def test_every_scheduler_runs_inside_the_one_phase_frame(self):
        """Same quantum formula, same accounting: nobody re-spells them."""
        for name in ALL_SCHEDULERS:
            cls = type(build(name))
            assert cls.plan_quantum is Scheduler.plan_quantum, name
            assert cls.schedule_phase is Scheduler.schedule_phase, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("scheduler_name", ALL_SCHEDULERS)
class TestConformance:
    def test_no_infeasible_dispatch(self, scheduler_name, workload_name, seed):
        """validate_phases re-checks every entry; violations must be zero.

        Under the default (accurate) execution model a dispatched task
        runs exactly its planned cost, so any guaranteed task missing
        its deadline means the scheduler emitted an infeasible entry.
        """
        _, report = run(scheduler_name, workload_name, seed)
        assert report.guaranteed_violations == 0, (
            f"{scheduler_name} dispatched a task past its deadline on "
            f"{workload_name}/seed={seed}"
        )

    def test_guarantees_never_silently_dropped(
        self, scheduler_name, workload_name, seed
    ):
        """Terminal accounting reconciles: no task vanishes."""
        tasks, report = run(scheduler_name, workload_name, seed)
        assert report.total_tasks == len(tasks)
        assert (
            report.completed + report.expired + report.failed
            == report.total_tasks
        )
        # No failures injected: every guarantee must run to completion.
        assert report.failed == 0
        assert report.completed == report.guaranteed
        assert report.deadline_hits + report.completed_late == report.completed

    def test_determinism_across_runs(self, scheduler_name, workload_name, seed):
        """Two fresh runs agree to full float precision."""
        _, first = run(scheduler_name, workload_name, seed)
        _, second = run(scheduler_name, workload_name, seed)
        assert simulation_fingerprint(first) == simulation_fingerprint(second)

    def test_oracle_soundness(self, scheduler_name, workload_name, seed):
        """No scheduler beats the clairvoyant oracle's hits upper bound."""
        tasks, report = run(scheduler_name, workload_name, seed)
        verdict = analyze_tasks(tasks, WORKERS)
        assert report.deadline_hits <= verdict.hits_upper_bound, (
            f"{scheduler_name} reported {report.deadline_hits} hits on "
            f"{workload_name}/seed={seed}, above the proven bound "
            f"{verdict.hits_upper_bound}"
        )
        # The regret arithmetic the runner exports is internally coherent.
        assert verdict.regret(report.deadline_hits) == (
            verdict.hits_upper_bound - report.deadline_hits
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheduler_name", ALL_SCHEDULERS)
def test_feasible_verdict_means_every_deadline_was_reachable(
    scheduler_name, seed
):
    """On oracle-feasible workloads the bound is total — misses are regret."""
    tasks = WORKLOADS["uniform"](seed, num_processors=WORKERS)
    verdict = analyze_tasks(tasks, WORKERS)
    if verdict.verdict != FEASIBLE:
        pytest.skip("generator produced a non-feasible instance")
    assert verdict.hits_upper_bound == len(tasks)
    _, report = run(scheduler_name, "uniform", seed)
    assert report.deadline_hits <= len(tasks)


def _cluster_cell(num_transactions: int = 24) -> ExperimentConfig:
    return ExperimentConfig.quick(
        num_transactions=num_transactions, runs=1, num_processors=3
    )


def _assert_cluster_agrees(scheduler_name: str) -> None:
    """Sim and cluster runs of one cell agree on everything timing-free.

    Wall-clock execution can change *which* deadlines are met, but the
    workload identity, the accounting identities, the report schema, and
    the oracle's bound hold on both backends.
    """
    config = _cluster_cell()
    seed = config.base_seed
    sim = run_once(config, scheduler_name, seed)
    live = run_once(
        replace(config, backend="cluster"), scheduler_name, seed
    )
    assert live.backend == "cluster"
    assert live.total_tasks == sim.total_tasks
    assert live.num_workers == sim.num_workers
    assert (
        live.completed + live.expired + live.failed == live.total_tasks
    )
    assert sorted(sim.as_dict()) == sorted(live.as_dict())
    # Both backends ran the same reconstructible workload, so both carry
    # the same oracle verdict — and neither may beat its bound.
    assert live.regret["verdict"] == sim.regret["verdict"]
    assert live.regret["hits_upper_bound"] == sim.regret["hits_upper_bound"]
    assert live.deadline_hits <= live.regret["hits_upper_bound"]
    assert sim.deadline_hits <= sim.regret["hits_upper_bound"]


def test_sim_cluster_agreement_smoke():
    """One live-cluster conformance pass for a non-RT-SADS scheduler."""
    _assert_cluster_agrees("edf")


@pytest.mark.slow
@pytest.mark.parametrize(
    "scheduler_name", [n for n in ALL_SCHEDULERS if n != "edf"]
)
def test_sim_cluster_agreement_matrix(scheduler_name):
    """The full cross-backend matrix (minutes of wall clock; CI's slow job)."""
    _assert_cluster_agrees(scheduler_name)


def _sharded_cell() -> ExperimentConfig:
    # Enough pressure that domains interact, small enough to stay fast.
    return ExperimentConfig.quick(
        num_transactions=40, runs=1, num_processors=4
    ).with_domains(2)


@pytest.mark.parametrize("scheduler_name", ALL_SCHEDULERS)
class TestShardedConformance:
    """Every registered scheduler must also conform on the sharded backend.

    Sharding multiplies the scheduler, it must not change its contract:
    the same accounting identities, the same report schema as the
    single-master simulator, the oracle bound still unbeatable, the
    migration ledger balanced, and the whole run deterministic.  Pure
    simulation, so the full matrix runs in the fast tier.
    """

    def test_accounting_and_schema(self, scheduler_name):
        config = _sharded_cell()
        seed = config.base_seed
        sim = run_once(config.with_domains(1), scheduler_name, seed)
        sharded = run_once(config, scheduler_name, seed)
        assert sharded.backend == "sharded"
        assert sharded.total_tasks == sim.total_tasks
        assert (
            sharded.completed + sharded.expired + sharded.failed
            == sharded.total_tasks
        )
        # No failures injected: guarantees run to completion exactly once,
        # whether they were honoured locally or after a migration.
        assert sharded.failed == 0
        assert sharded.completed == sharded.guaranteed
        assert sharded.guaranteed_violations == 0
        assert sorted(sim.as_dict()) == sorted(sharded.as_dict())

    def test_oracle_soundness_and_migration_ledger(self, scheduler_name):
        config = _sharded_cell()
        report = run_once(config, scheduler_name, config.base_seed)
        assert report.deadline_hits <= report.regret["hits_upper_bound"]
        section = report.migration
        assert (
            section["offers"]
            == section["accepted"] + section["declined"] + section["timeouts"]
        )
        assert sum(section["out_by_domain"].values()) == section["offers"]
        assert sum(section["in_by_domain"].values()) == section["accepted"]

    def test_determinism(self, scheduler_name):
        config = _sharded_cell()
        first = run_once(config, scheduler_name, config.base_seed).as_dict()
        second = run_once(config, scheduler_name, config.base_seed).as_dict()
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second
