"""One runtime: the paper's single master is its k=1 case.

``DistributedRuntime`` runs any number of domain hosts; these tests pin
that a one-domain run is the same simulation however it is reached (by
backend name, through ``simulate()``, or by building the runtime from a
one-domain partition), and that the step it skips at k=1 — projecting a
batch onto the host's slots — is skipped because the projection would be
the identity, not because k happens to be 1.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import RTSADS, UniformCommunicationModel, make_task
from repro.core.affinity import Projection
from repro.core.domains import partition_workers
from repro.core.registry import SCHEDULER_NAMES
from repro.experiments import ExperimentConfig, run_once
from repro.experiments.runner import build_scheduler, build_workload
from repro.runtime import get_backend
from repro.simulator import DistributedRuntime, DomainHost, simulate

#: Report fields that may legitimately differ between two labels of the
#: same one-domain run.
LABEL_FIELDS = ("backend", "wall_seconds", "migration")


def _cell(**overrides) -> ExperimentConfig:
    defaults = dict(num_transactions=60, runs=1, num_processors=4)
    defaults.update(overrides)
    return ExperimentConfig.quick(**defaults)


def _without(report, *fields) -> dict:
    data = report.as_dict()
    for name in fields:
        data.pop(name)
    return data


class TestOneDomainIsTheSameRunUnderEitherName:
    @pytest.mark.parametrize("seed", [3, 11, 1998])
    @pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
    def test_sharded_name_matches_sim_name(self, scheduler_name, seed):
        config = _cell()
        sim = run_once(config, scheduler_name, seed)
        sharded = run_once(
            replace(config, backend="sharded"), scheduler_name, seed
        )
        assert _without(sim, *LABEL_FIELDS) == _without(
            sharded, *LABEL_FIELDS
        )
        assert sim.events_dispatched == sharded.events_dispatched
        assert (sim.backend, sim.migration) == ("sim", {})
        assert sharded.backend == "sharded"
        assert sharded.migration["offers"] == 0

    def test_both_names_resolve_to_one_backend_class(self):
        sim, sharded = get_backend("sim"), get_backend("sharded")
        assert type(sim) is type(sharded)
        assert (sim.name, sharded.name) == ("sim", "sharded")

    def test_multi_domain_cells_report_sharded_under_either_name(self):
        config = _cell().with_domains(2)
        by_sim = run_once(config, "rtsads", 5)
        by_sharded = run_once(replace(config, backend="sharded"), "rtsads", 5)
        assert by_sim.backend == by_sharded.backend == "sharded"
        assert _without(by_sim, "wall_seconds") == _without(
            by_sharded, "wall_seconds"
        )

    @pytest.mark.parametrize("policy", ["hash", "worst-fit", "affinity"])
    def test_a_one_domain_partition_is_what_simulate_builds(self, policy):
        """The general constructor at k=1 and ``simulate()`` are one run."""
        config = _cell(slack_factor=1.5)
        comm = UniformCommunicationModel(remote_cost=config.remote_cost)
        _, tasks = build_workload(config, 7)
        assignment = partition_workers(
            config.num_processors, 1, policy, tasks=tasks
        )
        built = DistributedRuntime(
            schedulers=[build_scheduler("rtsads", config, comm)],
            assignment=assignment,
            workload=tasks,
            remote_cost=config.remote_cost,
            seed=7,
        ).run()
        wrapped = simulate(
            build_scheduler("rtsads", config, comm),
            tasks,
            config.num_processors,
            seed=7,
        )
        assert _without(built, "wall_seconds") == _without(
            wrapped, "wall_seconds"
        )
        assert built.events_dispatched == wrapped.events_dispatched


class TestIdentityProjectionIsKeyedOnWorkerOrder:
    def _tasks(self):
        return [
            make_task(0, 5.0, 100.0, affinity=[0]),
            make_task(1, 5.0, 100.0, affinity=[1, 2]),
            make_task(2, 5.0, 100.0, affinity=[]),
        ]

    def _runtime(self, m=3):
        comm = UniformCommunicationModel(10.0)
        return DistributedRuntime(
            schedulers=[RTSADS(comm)],
            assignment=partition_workers(m, 1),
            workload=[],
            remote_cost=comm.remote_cost,
        )

    def test_projecting_onto_range_m_returns_the_same_objects(self):
        """Why the skip is safe: the projection it skips is the identity."""
        view = Projection(range(3), 3)
        assert all(view.rename(task) is task for task in self._tasks())

    def test_the_whole_machine_in_order_skips_projection(self):
        host = self._runtime().domains[0]
        tasks = self._tasks()
        assert host.view.workers == (0, 1, 2)
        assert host.transform_batch(tasks, 0.0) is tasks

    def test_a_permuted_single_domain_still_projects(self):
        """k == 1 alone does not earn the fast path: slot order does."""
        runtime = self._runtime()
        host = DomainHost(
            runtime.assignment, 0, (1, 0, 2), runtime.domains[0].scheduler,
            runtime.ledger,
        )
        tasks = self._tasks()
        projected = host.transform_batch(tasks, 0.0)
        assert projected is not tasks
        # Worker 0 sits in slot 1 and worker 1 in slot 0.
        assert projected[0].affinity == frozenset({1})
        assert projected[1].affinity == frozenset({0, 2})
        assert projected[2] is tasks[2]

    def test_a_proper_subset_of_the_machine_projects(self):
        """(0, 1) of a 4-worker machine is range(2), not range(m)."""
        comm = UniformCommunicationModel(10.0)
        runtime = DistributedRuntime(
            schedulers=[RTSADS(comm), RTSADS(comm)],
            assignment=partition_workers(4, 2, "worst-fit"),
            workload=[],
            remote_cost=comm.remote_cost,
        )
        host = DomainHost(
            runtime.assignment, 0, (0, 1), runtime.domains[0].scheduler,
            runtime.ledger,
        )
        task = make_task(0, 5.0, 100.0, affinity=[1, 3])
        (projected,) = host.transform_batch([task], 0.0)
        assert projected.affinity == frozenset({1})
