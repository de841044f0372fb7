"""What the live master projects: only what changed.

Work, not seconds.  A real master behind a service front runs off the
wire (:func:`~tests.service.kept_state.offline_front`), and a counting
``Projection.rename`` records every task renamed into the master's slot
space.  Phases over an unchanged alive set rename nothing; a loss, or a
join that changes the slot order, renames each waiting task once; and
however long the run churns, the view's memo holds one batch at most.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import protocol
from repro.core.affinity import Projection
from repro.runtime.ledger import COMPLETED, EXPIRED

from .kept_state import offline_front
from .test_submit_path import submit

#: Phases run over each unchanged view.
PHASES = 20
#: Queued work that puts every deadline out of reach (a stalled worker).
STALL = 1e9


@pytest.fixture
def renamed(monkeypatch):
    """Task ids renamed by any ``Projection``, in call order."""
    ids = []
    rename = Projection.rename

    def counting(view, task):
        ids.append(task.task_id)
        return rename(view, task)

    monkeypatch.setattr(Projection, "rename", counting)
    return ids


def stall(master, *worker_ids):
    for worker_id in worker_ids:
        master.workers[worker_id].outstanding[-1 - worker_id] = STALL


def stalled_master(waiting=12):
    """Two workers, ``waiting`` accepted tasks no phase can place."""
    front = offline_front(workers=2)
    for request_id, template in enumerate(sorted(front.templates)[:waiting]):
        submit(front, request_id, template, relative=5000.0)
    stall(front.master, 0, 1)
    return front.master


def run_phases(master, count=PHASES):
    before = len(master.driver.phases)
    for _ in range(count):
        master._schedule_ready_work()
    phases = master.driver.phases[before:]
    assert len(phases) == count
    assert {phase.scheduled for phase in phases} == {0}
    return phases


def waiting_ids(master):
    return sorted(task.task_id for task in master.driver.batch.tasks())


class TestOnlyWhatChanged:
    def test_phases_over_an_unchanged_alive_set_project_nothing(
        self, renamed
    ):
        master = stalled_master()
        try:
            phases = run_phases(master)
            waiting = waiting_ids(master)
            assert len(waiting) >= 8
            assert {phase.batch_size for phase in phases} == {len(waiting)}
            assert renamed == []
            # A late join beyond the placement keeps slots 0..M-1 in place.
            master._register_worker(102, {"worker_id": 2})
            stall(master, 2)
            run_phases(master)
            assert master.view.workers == (0, 1, 2)
            assert renamed == []
        finally:
            master.close()

    def test_a_loss_then_a_join_project_each_waiting_task_once(
        self, renamed
    ):
        master = stalled_master()
        try:
            run_phases(master)
            waiting = waiting_ids(master)
            master._worker_lost(1, reason="test")
            run_phases(master)
            assert master.view.workers == (0,)
            assert sorted(renamed) == waiting
            del renamed[:]
            # Worker 2 lies beyond the placement; slot 1 is now its.
            master._register_worker(102, {"worker_id": 2})
            stall(master, 2)
            run_phases(master)
            assert master.view.workers == (0, 2)
            assert sorted(renamed) == waiting
        finally:
            master.close()


def test_the_memo_never_outgrows_the_batch(renamed):
    """Submit / settle / expire churn on a view that renames: after every
    phase the memo holds no more tasks than that phase's batch."""
    rng = random.Random(1998)
    front = offline_front(workers=3)
    master = front.master
    try:
        master._worker_lost(1, reason="test")
        templates = sorted(front.templates)
        request_id = 0
        for _ in range(300):
            for _ in range(rng.randint(0, 3)):
                relative = rng.choice((40.0, 400.0, 4000.0))
                submit(front, request_id, rng.choice(templates), relative)
                request_id += 1
            master.vnow.now += rng.uniform(0.0, 60.0)
            phases = len(master.driver.phases)
            master._schedule_ready_work()
            if len(master.driver.phases) > phases:
                batch = master.driver.phases[-1].batch_size
                assert len(master.view._memo) <= batch
            for worker_id in (0, 2):
                outstanding = master.workers[worker_id].outstanding
                for task_id in list(outstanding)[: rng.randint(0, 2)]:
                    master._handle_frame(100 + worker_id, {
                        "type": protocol.TASK_DONE,
                        "worker_id": worker_id,
                        "task_id": task_id,
                        "actual_cost": outstanding[task_id],
                    })
        settled = master.ledger.settled
        assert settled[COMPLETED] > 50 and settled[EXPIRED] > 0
        assert master.view.workers == (0, 2)
        assert 0 < len(renamed) < sum(
            phase.batch_size for phase in master.driver.phases
        )
    finally:
        master.close()
