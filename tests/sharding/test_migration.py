"""The migration guarantee check and its accounting.

``can_guarantee`` is the arithmetic both backends use to answer a
``MIGRATE_OFFER``, so it gets two kinds of scrutiny: hand-built cases
pinning the communication-cost handling, and a hypothesis property that
cross-validates every per-worker decision against the exact
branch-and-bound oracle (``exact_feasibility``) on the equivalent
two-task single-machine instance — the oracle is provably complete, so
any divergence would be a bug in the quick check.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import exact_feasibility
from repro.core.task import Task
from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_scheduler, build_workload
from repro.core.affinity import UniformCommunicationModel
from repro.core.domains import partition_workers
from repro.sharding import MigrationStats, can_guarantee
from repro.simulator import DistributedRuntime


def _task(processing: float, deadline: float, affinity=()) -> Task:
    return Task(
        task_id=1,
        processing_time=processing,
        arrival_time=0.0,
        deadline=deadline,
        affinity=frozenset(affinity),
    )


class TestCanGuarantee:
    def test_affine_worker_pays_no_communication(self):
        task = _task(10.0, deadline=15.0, affinity={3})
        assert can_guarantee(task, 0.0, [4.0], [3], remote_cost=50.0)

    def test_remote_cost_breaks_the_same_deadline(self):
        task = _task(10.0, deadline=15.0, affinity={3})
        assert not can_guarantee(task, 0.0, [4.0], [7], remote_cost=50.0)

    def test_any_single_worker_suffices(self):
        task = _task(10.0, deadline=20.0, affinity={2})
        loads = [100.0, 100.0, 5.0]
        assert can_guarantee(task, 0.0, loads, [0, 1, 2], remote_cost=50.0)

    def test_no_workers_means_no_guarantee(self):
        assert not can_guarantee(_task(1.0, 100.0), 0.0, [], [], 50.0)

    def test_exact_deadline_finish_is_accepted(self):
        task = _task(6.0, deadline=10.0, affinity={0})
        assert can_guarantee(task, 1.0, [3.0], [0], remote_cost=50.0)
        assert not can_guarantee(task, 1.0, [3.001], [0], remote_cost=50.0)

    # Quarter-integer grids keep the arithmetic exact in binary floating
    # point, so the quick check and the oracle face identical numbers.
    _quarters = st.integers(min_value=0, max_value=200).map(lambda n: n / 4)
    _pos_quarters = st.integers(min_value=1, max_value=200).map(
        lambda n: n / 4
    )

    @settings(max_examples=200, deadline=None)
    @given(
        now=_quarters,
        load=_pos_quarters,
        processing=_pos_quarters,
        deadline_slack=_pos_quarters,
        affine=st.booleans(),
        remote_cost=_quarters,
    )
    def test_per_worker_decision_matches_the_exact_oracle(
        self, now, load, processing, deadline_slack, affine, remote_cost
    ):
        """can_guarantee on one worker == exact feasibility of the pair.

        A worker with queued load L at time ``now`` is exactly a single
        machine that must first run a task (arrival ``now``, cost L,
        deadline ``now + L`` — zero slack forces it to go first) and then
        the offered task, whose cost includes the communication penalty
        when the worker is not in the affinity set.  The branch-and-bound
        oracle decides that two-task instance completely, so it is ground
        truth for the O(1) check.
        """
        task = _task(
            processing,
            deadline=now + deadline_slack,
            affinity={5} if affine else set(),
        )
        quick = can_guarantee(task, now, [load], [5], remote_cost)
        comm = 0.0 if affine else remote_cost
        exact = exact_feasibility(
            [
                (now, load, now + load),
                (now, processing + comm, task.deadline),
            ],
            workers=1,
        )
        assert exact is not None
        assert quick == exact


class TestMigrationStats:
    def test_counts_and_flows_accumulate(self):
        stats = MigrationStats()
        stats.record_offer(0)
        stats.record_offer(0)
        stats.record_offer(2)
        stats.record_accept(1)
        stats.record_decline()
        stats.record_timeout()
        assert stats.offers == 3
        assert stats.accepted + stats.declined + stats.timeouts == 3
        assert sum(stats.out_by_domain.values()) == stats.offers
        assert sum(stats.in_by_domain.values()) == stats.accepted

    def test_section_has_stable_string_keyed_maps(self):
        stats = MigrationStats()
        stats.record_offer(1)
        stats.record_accept(0)
        section = stats.as_section()
        assert sorted(section) == [
            "accepted",
            "declined",
            "in_by_domain",
            "offers",
            "out_by_domain",
            "timeouts",
        ]
        assert section["out_by_domain"] == {"1": 1}
        assert section["in_by_domain"] == {"0": 1}


class TestEndToEndAccounting:
    def _run_forced(self):
        """A 2-domain sim run with every task routed to domain 0.

        The misrouting overloads domain 0, which must then offer its
        unplaceable tasks to domain 1 — a deterministic way to exercise
        the full offer/accept/decline path without depending on natural
        pressure.
        """
        config = ExperimentConfig.quick(
            num_transactions=40,
            num_processors=4,
            base_seed=7,
            slack_factor=1.4,
            runs=1,
        ).with_domains(2)
        comm = UniformCommunicationModel(remote_cost=config.remote_cost)
        _, tasks = build_workload(config, config.base_seed)
        assignment = partition_workers(
            config.num_processors,
            config.domains,
            config.partition_policy,
            tasks=tasks,
        )
        schedulers = [
            build_scheduler("rtsads", config, comm)
            for _ in range(assignment.num_domains)
        ]
        runtime = DistributedRuntime(
            schedulers=schedulers,
            assignment=assignment,
            workload=tasks,
            remote_cost=config.remote_cost,
            seed=config.base_seed,
            router=lambda task: 0,
        )
        return runtime, runtime.run()

    def test_every_offer_resolves_exactly_once(self):
        runtime, report = self._run_forced()
        stats = runtime.stats
        assert stats.offers > 0
        assert stats.accepted > 0  # domain 1 starts idle: some must land
        assert (
            stats.offers == stats.accepted + stats.declined + stats.timeouts
        )
        assert sum(stats.out_by_domain.values()) == stats.offers
        assert sum(stats.in_by_domain.values()) == stats.accepted
        assert report.migration == stats.as_section()

    def test_migrated_guarantees_are_counted_once(self):
        _, report = self._run_forced()
        # Global accounting must absorb migrations without double counts:
        # every task ends in exactly one terminal state, and guarantees
        # (wherever honoured) never exceed the tasks that exist.
        assert (
            report.completed + report.expired + report.failed
            == report.total_tasks
        )
        assert report.guaranteed <= report.total_tasks
        assert report.deadline_hits <= report.guaranteed
        assert report.guaranteed_violations == 0
