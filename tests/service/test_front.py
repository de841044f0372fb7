"""The front keeps its books at the ledger, and knows who its clients are.

A real :class:`~repro.service.ServiceFront` on a real master, off the
wire (:func:`kept_state.offline_front`).  Seeded churn — SUBMITs under a
shedding policy, phases, worker loss and rejoin, completions, a drain —
must leave the kept admission state equal to a walk of the records after
every single operation, and the front's request map must hold exactly the
records in flight.  The idle stop counts as clients the open connections
that are not registered workers: a fleet alone never makes a service
idle-stop, a client that never submits holds the stop back, and a client
that leaves with work in flight loses its RESULTs but not its books.
"""

from __future__ import annotations

import random
import time

from repro.cluster import protocol
from repro.runtime.ledger import (
    COMPLETED,
    DELIVERED,
    SHED,
    SURRENDERED,
    TERMINAL,
)

from .kept_state import Clock, assert_kept_state_is_snapshot, offline_front
from .test_submit_path import submit

#: Connection ids of the offline front's registered workers.
WORKER_CONN = 100


def results_on(front, conn_id):
    return [
        frame for frame in front.master.hub.frames[conn_id]
        if frame["type"] == protocol.RESULT
    ]


def complete(front, task_id):
    record = front.master.records[task_id]
    front.master._on_task_done(
        WORKER_CONN + record.processor,
        {
            "type": protocol.TASK_DONE,
            "worker_id": record.processor,
            "task_id": task_id,
            "actual_cost": record.planned_cost,
        },
    )


def delivered(front):
    return sorted(
        task_id for task_id, record in front.master.records.items()
        if record.status == DELIVERED
    )


def idle_stop_due(front):
    front.drain_if_due(time.monotonic())
    return front.draining


def assert_books(front):
    """Kept state is the snapshot; the request map is what is in flight."""
    assert_kept_state_is_snapshot(front)
    assert set(front._requests) == set(front.master.records)


class TestChurn:
    def test_random_churn_keeps_the_books_after_every_step(self):
        rng = random.Random(1998)
        clock = Clock()
        front = offline_front(
            workers=3,
            clock=clock,
            admission_policy="least-slack",
            # One 200-unit template fits only by shedding tighter work.
            max_backlog_units=250.0,
            stop_when_idle=False,
        )
        master = front.master
        clients = (1, 2, 3)
        for conn_id in clients:
            master.hub.connect(conn_id)
        templates = sorted(front.templates)
        requests = 0
        next_conn = 200
        try:
            for _ in range(600):
                op = rng.random()
                if op < 0.40:
                    relative = rng.choice((0.0, 60.0, 400.0, 3000.0))
                    submit(
                        front, requests, rng.choice(templates), relative,
                        conn=rng.choice(clients),
                    )
                    requests += 1
                elif op < 0.60:
                    master._schedule_ready_work()
                elif op < 0.75 and delivered(front):
                    complete(front, rng.choice(delivered(front)))
                elif op < 0.80:
                    alive = master.alive_workers()
                    if len(alive) > 1:
                        master._worker_lost(rng.choice(alive), reason="test")
                elif op < 0.85:
                    dead = [
                        w for w, state in master.workers.items()
                        if not state.alive
                    ]
                    if dead:
                        worker_id = rng.choice(dead)
                        master.hub.connect(next_conn)
                        master._register_worker(
                            next_conn, {"worker_id": worker_id}
                        )
                        next_conn += 1
                else:
                    clock.now += rng.uniform(0.0, 80.0)
                assert_books(front)
            ledger = master.ledger
            assert ledger.settled[SHED] > 0 and ledger.reschedules > 0
            assert ledger.settled[COMPLETED] > 0
            assert master.records, "the drain below must have work to end"
            front.request_stop("test")
            front.drain_if_due(time.monotonic())
            front.surrender()
            assert_books(front)
            assert master.records == {} and front._requests == {}
            assert ledger.settled[SURRENDERED] > 0
            # Every accepted request got exactly one RESULT, on its client.
            answered = [
                frame["request_id"]
                for conn_id in clients
                for frame in results_on(front, conn_id)
            ]
            accepted = [
                frame["request_id"]
                for conn_id in clients
                for frame in master.hub.frames[conn_id]
                if frame["type"] == protocol.ACCEPT
            ]
            assert sorted(answered) == sorted(accepted)
            assert len(accepted) == ledger.opened
            assert sum(ledger.settled[s] for s in TERMINAL) == ledger.opened
        finally:
            master.close()


class TestWhoIsAClient:
    def test_a_fleet_alone_never_idles_a_service(self):
        """Worker connections — before their HELLO too — are no served
        client: with nothing submitted the idle stop never fires."""
        front = offline_front(workers=2)
        master = front.master
        try:
            master.hub.connect(102)  # a late worker, not yet registered
            assert not idle_stop_due(front)
            master._register_worker(102, {"worker_id": 2})
            assert not idle_stop_due(front)
        finally:
            master.close()

    def test_a_worker_after_hello_is_not_a_client(self):
        """A served client left.  A worker that connects now holds the
        idle stop back only until its HELLO names it a worker."""
        front = offline_front(workers=2)
        master = front.master
        try:
            master.hub.connect(1)
            submit(front, 0, min(front.templates), conn=1)
            master._schedule_ready_work()
            (task_id,) = delivered(front)
            complete(front, task_id)
            assert len(results_on(front, 1)) == 1
            master.hub.close_connection(1)
            master.hub.connect(102)
            assert not idle_stop_due(front)
            master._register_worker(102, {"worker_id": 2})
            assert front._clients() == 0
            assert idle_stop_due(front)
        finally:
            master.close()

    def test_a_client_that_never_submits_holds_the_idle_stop(self):
        front = offline_front(workers=2)
        master = front.master
        try:
            master.hub.connect(1)
            master.hub.connect(2)  # connected, never submits
            assert not idle_stop_due(front)
            submit(front, 0, min(front.templates), conn=1)
            master._schedule_ready_work()
            complete(front, delivered(front)[0])
            master.hub.close_connection(1)
            assert front._clients() == 1
            assert not idle_stop_due(front)
            master.hub.close_connection(2)
            assert idle_stop_due(front)
            assert master.hub.frames[2] == []
        finally:
            master.close()

    def test_a_client_gone_with_work_in_flight(self):
        """Its RESULTs drop with the connection; its records still settle,
        the books still balance, and the idle stop still fires."""
        front = offline_front(workers=2, max_backlog_units=1e6)
        master = front.master
        try:
            master.hub.connect(1)
            templates = sorted(front.templates)
            for request_id, template in enumerate(templates):
                submit(front, request_id, template, relative=5000.0, conn=1)
                if request_id == len(templates) // 2:
                    master._schedule_ready_work()
            accepted = master.ledger.opened
            in_flight = delivered(front)
            assert in_flight and len(in_flight) < accepted == len(templates)
            master.hub.close_connection(1)
            frames_before = len(master.hub.frames[1])
            assert not idle_stop_due(front)  # work is still in flight
            while master.records:
                for task_id in delivered(front):
                    complete(front, task_id)
                    assert_books(front)
                master._schedule_ready_work()
            assert len(master.hub.frames[1]) == frames_before
            assert master.ledger.settled[COMPLETED] == accepted
            assert front._requests == {}
            assert idle_stop_due(front)
        finally:
            master.close()
