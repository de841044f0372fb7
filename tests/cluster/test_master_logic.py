"""Master-side pure logic: the alive-set projection, report arithmetic and
the launcher's task routing."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, launch_cluster, launcher
from repro.core import RTSADS, UniformCommunicationModel, make_task
from repro.core.affinity import Projection
from repro.runtime import RunReport


def make_report(**overrides) -> RunReport:
    defaults = dict(
        backend="cluster",
        scheduler_name="rtsads",
        num_workers=4,
        seed=1,
        total_tasks=100,
        guaranteed=90,
        completed=88,
        deadline_hits=88,
        completed_late=0,
        expired=12,
        failed=0,
        guaranteed_violations=0,
        reschedules=0,
        workers_lost=0,
        makespan=5000.0,
        wall_seconds=5.0,
        extras={"port": 45000},
    )
    defaults.update(overrides)
    return RunReport(**defaults)


def project(tasks, alive, placement=4):
    """What the master's phase sees: ``tasks`` over the ``alive`` view of
    a ``placement``-processor machine."""
    return Projection(alive, placement).project(tasks)


class TestRemapTasks:
    def test_identity_when_all_workers_alive(self):
        tasks = [
            make_task(0, 10.0, 100.0, affinity=[0, 2]),
            make_task(1, 10.0, 100.0, affinity=[1]),
        ]
        remapped = project(tasks, alive=[0, 1, 2], placement=3)
        assert remapped is tasks

    def test_affinities_shift_into_survivor_index_space(self):
        """With worker 1 dead, survivors [0, 2, 3] become indices
        [0, 1, 2]; a task pinned to real worker 3 must point at index 2."""
        tasks = [make_task(0, 10.0, 100.0, affinity=[3])]
        (remapped,) = project(tasks, alive=[0, 2, 3])
        assert remapped.affinity == frozenset({2})

    def test_dead_worker_drops_out_of_affinity(self):
        tasks = [make_task(0, 10.0, 100.0, affinity=[1, 2])]
        (remapped,) = project(tasks, alive=[0, 2])
        assert remapped.affinity == frozenset({1})  # worker 2 -> index 1

    def test_fully_dead_affinity_degrades_to_remote_everywhere(self):
        tasks = [make_task(0, 10.0, 100.0, affinity=[1])]
        (remapped,) = project(tasks, alive=[0, 2])
        assert remapped.affinity == frozenset()

    def test_everything_but_affinity_is_preserved(self):
        task = make_task(5, 12.5, 80.0, affinity=[1], arrival_time=3.0)
        (remapped,) = project([task], alive=[1, 2])
        assert remapped.task_id == task.task_id
        assert remapped.processing_time == task.processing_time
        assert remapped.arrival_time == task.arrival_time
        assert remapped.deadline == task.deadline

    def test_all_workers_dead_empties_every_affinity(self):
        """With no survivors the index space is empty; remap degrades every
        affinity set to all-remote rather than raising.  (The master never
        schedules in this state — loads() returns [] and the driver skips
        the phase — but remap itself must stay total.)"""
        tasks = [
            make_task(0, 10.0, 100.0, affinity=[0, 1, 2]),
            make_task(1, 10.0, 100.0),  # already affinity-free
        ]
        remapped = project(tasks, alive=[])
        assert all(t.affinity == frozenset() for t in remapped)

    def test_slack_that_cannot_survive_remapping_is_not_guaranteed(self):
        """A task whose only resident replica died must pay the remote
        cost; when its deadline cannot absorb that, the feasibility search
        on the survivors must leave it unscheduled (it will expire) rather
        than hand out a guarantee it cannot keep."""
        comm = UniformCommunicationModel(remote_cost=400.0)
        scheduler = RTSADS(comm=comm, per_vertex_cost=0.005)
        # Feasible while worker 1 lives: cost 10, deadline 50.  Remote it
        # costs 10 + 400 = 410 > 50.
        task = make_task(0, 10.0, 50.0, affinity=[1])
        (remapped,) = project([task], alive=[0, 2])
        assert remapped.affinity == frozenset()
        loads = [0.0, 0.0]
        quantum = scheduler.plan_quantum([remapped], loads, now=0.0)
        result = scheduler.schedule_phase([remapped], loads, 0.0, quantum)
        assert task.task_id not in result.schedule.task_ids()

    def test_remap_composes_across_successive_failures(self):
        """Losing workers one at a time must land on the same affinities as
        losing them all at once: remapping through an intermediate alive
        set, then remapping the survivors' *positions*, equals remapping
        straight to the final alive set.  Seeded like the differential
        suite so failures reproduce."""
        for seed in range(10):
            rng = random.Random(1998 + seed)
            workers = list(range(6))
            tasks = [
                make_task(
                    i,
                    10.0,
                    500.0,
                    affinity=rng.sample(workers, rng.randint(0, 4)),
                )
                for i in range(20)
            ]
            alive_first = sorted(rng.sample(workers, 4))
            alive_final = sorted(rng.sample(alive_first, 2))
            positions = [alive_first.index(w) for w in alive_final]

            stepwise = project(
                project(tasks, alive=alive_first, placement=6),
                alive=positions,
                placement=len(alive_first),
            )
            direct = project(tasks, alive=alive_final, placement=6)
            assert stepwise == direct, f"seed {1998 + seed}"


class TestMidPhaseDisconnect:
    def test_declined_dispatch_requeues_and_reschedules_on_survivors(self):
        """A worker dying between phase start and dispatch: deliver_entry
        returns False for its entries, the driver requeues them, and the
        next phase (with the dead worker remapped away) re-guarantees
        them.  This is the master's decline path in miniature."""
        from repro.observability import NULL_INSTRUMENTATION
        from repro.runtime import (
            PhaseDriver,
            PhaseHooks,
            TaskLedger,
            TaskRecord,
        )

        ledger = TaskLedger(NULL_INSTRUMENTATION)

        class FlakyWorkerHooks(PhaseHooks):
            def __init__(self):
                self.view = Projection((0, 1), 2)
                self.dead_processor = None
                self.dispatched = []

            def loads(self, now):
                return [0.0] * len(self.view.workers)

            def transform_batch(self, tasks, now):
                return self.view.project(tasks)

            def deliver_entry(self, entry, phase_index, now):
                if entry.processor == self.dead_processor:
                    return False
                self.dispatched.append(entry.task.task_id)
                ledger.place(
                    entry, phase_index, now, self.view.workers[entry.processor]
                )
                return True

        scheduler = RTSADS(
            comm=UniformCommunicationModel(remote_cost=5.0),
            per_vertex_cost=0.01,
        )
        hooks = FlakyWorkerHooks()
        driver = PhaseDriver(scheduler, hooks, ledger)
        tasks = [make_task(i, 10.0, 1000.0, affinity=[i % 2]) for i in range(4)]
        for task in tasks:
            ledger.open(TaskRecord(task))
        driver.admit(tasks)

        hooks.dead_processor = 1  # dies mid-phase: dispatches decline
        first = driver.run_phase(now=0.0)
        assert first.scheduled == 4
        assert first.delivered < 4
        declined = first.scheduled - first.delivered
        assert driver.has_backlog()

        # The master notices the loss before the next phase: survivors
        # only, and the declined tasks re-enter through the normal path.
        hooks.view = Projection((0,), 2)
        hooks.dead_processor = None
        second = driver.run_phase(now=first.end)
        assert second.delivered == declined
        assert ledger.guaranteed == 4
        assert ledger.settled["expired"] == 0  # nothing expires here
        assert not driver.has_backlog()


class TestClusterReport:
    def test_ratios(self):
        report = make_report(
            total_tasks=200, guaranteed=150, deadline_hits=140
        )
        assert report.guarantee_ratio == pytest.approx(0.75)
        assert report.hit_ratio == pytest.approx(0.70)

    def test_zero_task_run_yields_zero_ratios(self):
        report = make_report(total_tasks=0, guaranteed=0, deadline_hits=0)
        assert report.guarantee_ratio == 0.0
        assert report.hit_ratio == 0.0

    def test_render_prints_both_ratios(self):
        text = make_report(
            total_tasks=100, guaranteed=90, deadline_hits=88
        ).render()
        assert "guarantee ratio:  0.900" in text
        assert "compliance ratio: 0.880" in text
        assert "rtsads" in text

    def test_render_surfaces_failures_and_reschedules(self):
        text = make_report(workers_lost=1, reschedules=7).render()
        assert "workers lost 1" in text
        assert "reschedules 7" in text


class TestLauncherRouting:
    @pytest.mark.parametrize("answer", [-1, 2])
    def test_router_answer_outside_the_domains_is_refused(
        self, answer, monkeypatch
    ):
        """A router answer outside ``0..k-1`` names the task in a
        ValueError before any master is built, never landing the task in
        the last domain (-1) or raising a bare IndexError (k)."""

        def no_master(*args, **kwargs):
            raise AssertionError("a master was built for a misrouted run")

        monkeypatch.setattr(launcher, "ClusterMaster", no_master)
        config = ClusterConfig.smoke(workers=4, tasks=8, seed=7)
        config = replace(
            config, experiment=config.experiment.with_domains(2)
        )
        with pytest.raises(ValueError, match=r"task \d+ to unknown domain"):
            launch_cluster(config, router=lambda task: answer)
