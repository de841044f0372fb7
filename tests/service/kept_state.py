"""The admission state a service front keeps, checked against the records.

:func:`snapshot` is the from-scratch oracle: it walks every open record
the way the service once did on each SUBMIT.
:func:`assert_kept_state_is_snapshot` holds the front's kept views and
totals to it, and makes every policy decide the same probes on both.
:func:`offline_front` builds a real :class:`~repro.service.ServiceFront`
on a real master with no sockets and no worker processes — an in-memory
:class:`WireStub` for a hub and a hand-driven clock — so a test can post
every transition itself.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Dict, List, Optional

from repro.cluster import ClusterConfig
from repro.core import make_task
from repro.runtime.ledger import DELIVERED, PENDING
from repro.service import (
    ADMISSION_POLICY_NAMES,
    AdmissionState,
    QueuedTask,
    ServiceConfig,
    ServiceFront,
    build_policy,
)


def snapshot(front: ServiceFront, now: float) -> AdmissionState:
    """What is queued, from scratch: one view per open record."""
    pending: List[QueuedTask] = []
    outstanding: List[QueuedTask] = []
    for record in front.master.records.values():
        view = QueuedTask(
            task_id=record.task.task_id,
            cost=record.planned_cost or record.task.processing_time,
            deadline=record.task.deadline,
        )
        if record.status == PENDING:
            pending.append(view)
        elif record.status == DELIVERED:
            outstanding.append(view)
    return AdmissionState(
        now=now,
        workers=len(front.master.alive_workers()),
        capacity_units=front.admission.capacity_units,
        pending=tuple(pending),
        outstanding=tuple(outstanding),
    )


def _by_id(views) -> Dict[int, QueuedTask]:
    return {view.task_id: view for view in views}


def assert_kept_state_is_snapshot(front: ServiceFront) -> None:
    """Kept views and totals equal the snapshot's; so do all decisions."""
    now = front.master.vnow()
    oracle = snapshot(front, now)
    kept = front.admission.at(now, oracle.workers)
    assert _by_id(kept.pending) == _by_id(oracle.pending)
    assert _by_id(kept.outstanding) == _by_id(oracle.outstanding)
    assert kept.backlog_units() == oracle.backlog_units()
    assert kept.outstanding_units() == oracle.outstanding_units()
    for cost, laxity in ((9.0, 30.0), (12.0, 400.0), (200.0, 6000.0)):
        probe = make_task(-1, cost, now + laxity, arrival_time=now)
        for name in ADMISSION_POLICY_NAMES:
            policy = build_policy(name)
            assert policy.decide(probe, cost, kept) == policy.decide(
                probe, cost, oracle
            ), (name, cost, laxity)


def check_after_every_step(front: ServiceFront) -> None:
    """Wrap the master's ``step`` so the kept state is checked after each."""
    master = front.master
    step = master.step

    def checked_step() -> bool:
        done = step()
        assert_kept_state_is_snapshot(front)
        return done

    master.step = checked_step


class WireStub:
    """The hub surface a master uses, in memory.

    Frames are kept per connection; a send to a closed (or deliberately
    cut) connection fails, the way a dead socket does.  A peer is open
    from :meth:`connect` until its connection is closed or cut.
    """

    def __init__(self) -> None:
        self.frames: Dict[int, List[dict]] = defaultdict(list)
        self.cut: set = set()
        self.connected: set = set()

    @property
    def open_connections(self) -> int:
        return len(self.connected - self.cut)

    def connect(self, conn_id: int) -> None:
        self.connected.add(conn_id)

    def send(self, conn_id: int, message: dict) -> bool:
        if conn_id in self.cut:
            return False
        self.frames[conn_id].append(message)
        return True

    def poll(self, timeout: float) -> list:
        return []

    def close_connection(self, conn_id: int) -> None:
        self.cut.add(conn_id)

    def close(self) -> None:
        pass


class Clock:
    """A virtual clock a test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def offline_front(
    workers: int = 2,
    instrumentation=None,
    clock: Optional[Clock] = None,
    **service: object,
) -> ServiceFront:
    """A started service front over the smoke universe, off the wire.

    Workers ``0..workers-1`` are connected and registered on connections
    ``100 + id``; the master's virtual now is ``clock`` (a fresh one by
    default).
    """
    front = ServiceFront.on_whole_fleet(
        ServiceConfig(
            cluster=ClusterConfig.smoke(workers=workers, tasks=16, seed=7),
            **service,
        ),
        instrumentation=instrumentation,
    )
    master = front.master
    master.hub.close()
    master.hub = WireStub()
    master.vnow = clock or Clock()
    for worker_id in range(workers):
        master.hub.connect(100 + worker_id)
        master._register_worker(100 + worker_id, {"worker_id": worker_id})
    master.start_clock()
    front.start()
    return front


def snapshot_submit(
    front: ServiceFront, template_id: int, relative: float
):
    """The decision and backpressure flag a SUBMIT gets from the snapshot.

    The front's own rule, read off a from-scratch snapshot taken before
    the SUBMIT: the baseline the kept state must reproduce.
    """
    now = front.master.vnow()
    template = front.templates[template_id]
    if relative <= 0.0:
        relative = template.deadline - template.arrival_time
    task = replace(
        template,
        task_id=front._next_task_id,
        arrival_time=now,
        deadline=now + relative,
    )
    cost = template.processing_time
    before = snapshot(front, now)
    decision = front.policy.decide(task, cost, before)
    if not decision.accept or decision.shed:
        backpressure = True
    elif before.backlog_units() + cost < 0.8 * before.capacity_units:
        backpressure = False
    else:
        backpressure = front._backpressure
    return decision, backpressure
