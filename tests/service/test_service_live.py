"""Live service-mode behavior: admission, results, drain, elastic joins.

Same determinism discipline as the live-cluster suite: fixed seeds,
generous deadlines, small workloads, the package SIGALRM hard timeout,
and explicit no-leaked-children assertions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import socket
import threading
import time

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import ClusterConfig, protocol, reap_workers, spawn_worker
from repro.cluster.network import ConnectionLost, WorkerChannel
from repro.observability import (
    Instrumentation,
    MemorySink,
    attribute_misses,
    get_instrumentation,
)
from repro.service import ServiceClient, ServiceConfig, ServiceFront
from repro.service.server import serve

from .kept_state import check_after_every_step


def smoke_service(workers=2, tasks=16, seed=7, **overrides) -> ServiceConfig:
    cluster = ClusterConfig.smoke(workers=workers, tasks=tasks, seed=seed)
    return ServiceConfig(cluster=cluster, **overrides)


def assert_port_released(port: int) -> None:
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


@contextlib.contextmanager
def live_service(
    service: ServiceConfig, instrumentation=None, before_workers=None
):
    """Served front in a thread, real worker fleet; always reaps and joins.

    ``before_workers(front)`` runs while the master still waits for its
    fleet: whatever it submits is queued and replayed at virtual time
    zero, back to back, before any phase runs.  After every ``step()``
    the front's kept admission state must equal a walk of its records.
    """
    front = ServiceFront.on_whole_fleet(
        service, instrumentation=instrumentation
    )
    master = front.master
    check_after_every_step(front)
    worker_config = service.cluster.with_port(master.port)
    workers: list = []
    box: dict = {}

    def _run() -> None:
        try:
            box["report"] = serve(front)
        except BaseException as exc:  # surfaced after teardown
            box["error"] = exc

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    try:
        if before_workers is not None:
            before_workers(front)
        workers.extend(
            spawn_worker(worker_config, index)
            for index in range(service.cluster.num_workers)
        )
        yield front, workers, box
    finally:
        front.request_stop("test-teardown")
        thread.join(timeout=60)
        master.close()
        reap_workers(workers, get_instrumentation())
    if "error" in box:
        raise box["error"]
    assert thread.is_alive() is False, "service loop failed to stop"


def await_ready(front: ServiceFront, timeout: float = 30.0) -> None:
    """Block until the front decides SUBMITs instead of queueing them."""
    deadline = time.monotonic() + timeout
    while front._started is None:
        assert time.monotonic() < deadline, "service never became ready"
        time.sleep(0.02)


class TestResultDiscipline:
    def test_every_accept_gets_exactly_one_result(
        self, assert_no_leaked_children
    ):
        service = smoke_service(stop_when_idle=False)
        with live_service(service) as (front, _workers, box):
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            try:
                for template_id in sorted(
                    t.task_id for t in front.templates.values()
                )[:12]:
                    client.submit(template_id)
                assert client.drain(timeout=60.0)
                outcomes = list(client.outcomes.values())
                assert len(outcomes) == 12
                assert all(o.accepted for o in outcomes)
                assert all(
                    o.status in ("completed", "expired") for o in outcomes
                )
                # Fresh task ids, all distinct, none a template id.
                minted = {o.task_id for o in outcomes}
                assert len(minted) == 12
                assert minted.isdisjoint(front.templates)
            finally:
                client.close()
        report = box["report"]
        assert report.total_tasks == 12
        assert report.extras["accepted"] == 12
        assert report.extras["rejected"] == 0
        assert report.guaranteed_violations == 0
        assert_port_released(report.extras["port"])

    def test_unknown_template_is_rejected_not_fatal(
        self, assert_no_leaked_children
    ):
        with live_service(smoke_service(stop_when_idle=False)) as (
            front, _workers, _box,
        ):
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            try:
                outcome = client.submit(999999)
                assert client.drain(timeout=30.0)
                assert outcome.accepted is False
                assert outcome.reject_reason == "unknown-template"
                # The service keeps serving after a bad submission.
                good = client.submit(min(front.templates))
                assert client.drain(timeout=60.0)
                assert good.accepted is True
            finally:
                client.close()

    def test_malformed_submit_costs_only_its_own_connection(
        self, assert_no_leaked_children
    ):
        """A well-framed SUBMIT with missing, mistyped or non-finite
        fields is the sender's problem: its connection closes, nothing is
        counted, and a second client keeps getting ACCEPT + exactly one
        RESULT each."""
        malformed = [
            {"type": protocol.SUBMIT},
            {"type": protocol.SUBMIT, "request_id": "x", "template_id": 0},
            {"type": protocol.SUBMIT, "request_id": 1, "template_id": None},
            # JSON's NaN / Infinity tokens decode to floats.
            {
                "type": protocol.SUBMIT, "request_id": 2, "template_id": 0,
                "relative_deadline": float("nan"),
            },
            {
                "type": protocol.SUBMIT, "request_id": 3, "template_id": 0,
                "relative_deadline": float("inf"),
            },
        ]
        count = len(malformed)
        with live_service(smoke_service(stop_when_idle=False)) as (
            front, _workers, box,
        ):
            await_ready(front)
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            frames = []
            try:
                templates = sorted(front.templates)[:count]
                for template_id, payload in zip(templates, malformed):
                    vandal = WorkerChannel.connect("127.0.0.1", front.master.port)
                    try:
                        vandal.send(payload)
                        with pytest.raises(ConnectionLost):
                            for _ in range(200):
                                vandal.poll(0.05)
                    finally:
                        vandal.close()
                    client.submit(template_id)
                deadline = time.monotonic() + 60.0
                while client.unsettled() and time.monotonic() < deadline:
                    frames.extend(client.poll(0.05))
                outcomes = list(client.outcomes.values())
                assert len(outcomes) == count
                assert all(o.accepted and o.settled for o in outcomes)
                for outcome in outcomes:
                    results = [
                        f for f in frames
                        if f["type"] == protocol.RESULT
                        and f["request_id"] == outcome.request_id
                    ]
                    assert len(results) == 1
            finally:
                client.close()
        report = box["report"]
        # Malformed frames were refused before they were counted.
        assert report.extras["submitted"] == count
        assert report.extras["accepted"] == count
        assert report.extras["rejected"] == 0

    def test_stray_migrate_offer_is_ignored_by_a_lone_master(
        self, assert_no_leaked_children
    ):
        """The retired master-to-master offer frame is an unknown type: its
        sender loses the connection, no task is injected, and a client
        keeps its one RESULT per submission."""
        with live_service(smoke_service(stop_when_idle=False)) as (
            front, _workers, box,
        ):
            await_ready(front)
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            frames = []
            try:
                for template_id in sorted(front.templates)[:6]:
                    # A free task id (template ids are never minted) and a
                    # deadline any worker could meet: acceptable on paper.
                    body = json.dumps({
                        "v": protocol.PROTOCOL_VERSION,
                        "type": "MIGRATE_OFFER",
                        "offer_id": template_id,
                        "origin_domain": 1,
                        "task_id": template_id,
                        "arrival": 0.0,
                        "processing": 1.0,
                        "deadline": 1e9,
                        "affinity": [0],
                    }).encode("utf-8")
                    with socket.create_connection(
                        ("127.0.0.1", front.master.port), timeout=30.0
                    ) as peer:
                        peer.sendall(protocol.HEADER.pack(len(body)) + body)
                        assert peer.recv(1) == b""  # dropped, unanswered
                    client.submit(template_id)
                deadline = time.monotonic() + 60.0
                while client.unsettled() and time.monotonic() < deadline:
                    frames.extend(client.poll(0.05))
                outcomes = list(client.outcomes.values())
                assert len(outcomes) == 6
                assert all(o.accepted and o.settled for o in outcomes)
                results = [f for f in frames if f["type"] == protocol.RESULT]
                assert sorted(f["request_id"] for f in results) == sorted(
                    o.request_id for o in outcomes
                )
            finally:
                client.close()
        report = box["report"]
        assert report.total_tasks == report.extras["submitted"] == 6
        assert report.completed + report.expired == 6

    def test_task_done_without_a_cost_settles_nothing(
        self, assert_no_leaked_children
    ):
        """A TASK_DONE missing ``actual_cost`` fails before any bookkeeping
        moves: the named task still completes through its real worker and
        its client still gets the one RESULT."""
        with live_service(smoke_service(stop_when_idle=False)) as (
            front, _workers, box,
        ):
            await_ready(front)
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            try:
                for template_id in sorted(front.templates)[:6]:
                    outcome = client.submit(template_id)
                    while outcome.accepted is None:
                        client.poll(0.05)
                    for worker_id in range(2):
                        vandal = WorkerChannel.connect(
                            "127.0.0.1", front.master.port
                        )
                        vandal.send(
                            {
                                "type": protocol.TASK_DONE,
                                "task_id": outcome.task_id,
                                "worker_id": worker_id,
                            }
                        )
                        vandal.close()
                assert client.drain(timeout=60.0)
                outcomes = list(client.outcomes.values())
                assert all(o.accepted and o.settled for o in outcomes)
            finally:
                client.close()
        report = box["report"]
        assert report.completed + report.expired == report.total_tasks == 6


class TestGracefulDrain:
    def test_drain_settles_every_accepted_submission(
        self, assert_no_leaked_children
    ):
        """SIGTERM-style stop: whatever cannot finish inside the grace is
        surrendered, and no ACCEPT is ever left without a RESULT."""
        # Slow the clock so the backlog is genuinely in flight at stop.
        service = smoke_service(
            tasks=24,
            stop_when_idle=False,
            drain_grace_seconds=0.5,
        )
        service = dataclasses.replace(
            service,
            cluster=dataclasses.replace(service.cluster, seconds_per_unit=0.01),
        )
        with live_service(service) as (front, _workers, box):
            await_ready(front)
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            try:
                for template_id in sorted(front.templates):
                    client.submit(template_id)
                client.poll(0.2)  # let a few ACCEPTs land
                front.request_stop("test-stop")
                assert client.drain(timeout=60.0), (
                    "unsettled submissions after drain: "
                    f"{[o.request_id for o in client.unsettled()]}"
                )
                outcomes = list(client.outcomes.values())
                accepted = [o for o in outcomes if o.accepted]
                assert accepted, "drain test needs accepted work in flight"
                for outcome in accepted:
                    assert outcome.status in (
                        "completed", "expired", "surrendered"
                    )
                surrendered = [
                    o for o in accepted if o.status == "surrendered"
                ]
                assert surrendered, (
                    "0.5s grace on a slowed clock must strand some work"
                )
            finally:
                client.close()
        report = box["report"]
        # Surrendered guarantees are revoked, never violated.
        assert report.guaranteed_violations == 0
        assert report.extras["drain_reason"] == "test-stop"
        assert report.extras["surrendered"] == len(surrendered)
        # The master's ledger is empty: nothing orphaned inside either.
        assert front.master.records == {}

    def test_trace_outcomes_equal_the_reports_counts(
        self, assert_no_leaked_children
    ):
        """One traced run that sheds under overload and strands work at
        the drain: ``trace analyze`` books every accepted submission
        under the outcome the master answered it with."""
        obs = Instrumentation(sink=MemorySink())
        service = smoke_service(
            tasks=24,
            stop_when_idle=False,
            drain_grace_seconds=0.5,
            admission_policy="least-slack",
            # The fifteen indexed templates (161 units together) fit; the
            # first 200-unit scan must shed eight of them to get in.
            max_backlog_units=300.0,
        )
        service = dataclasses.replace(
            service,
            cluster=dataclasses.replace(service.cluster, seconds_per_unit=0.01),
        )
        clients = []

        def burst_before_the_fleet(front):
            # The whole universe, tightest first, so each newcomer
            # outranks the queue it is replayed against at t=0.
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            clients.append(client)
            for template in sorted(
                front.templates.values(),
                key=lambda t: t.deadline - t.arrival_time - t.processing_time,
            ):
                client.submit(template.task_id)
            deadline = time.monotonic() + 10.0
            while len(front._pre_start) < len(front.templates):
                assert time.monotonic() < deadline, "SUBMITs never queued"
                time.sleep(0.02)

        with live_service(service, obs, burst_before_the_fleet) as (
            front, _workers, box
        ):
            await_ready(front)
            (client,) = clients
            try:
                client.poll(0.2)  # the scan runs 2 s on the slowed clock
                front.request_stop("test-stop")
                assert client.drain(timeout=60.0)
            finally:
                client.close()
        report = box["report"]
        report.check_balance()
        extras = report.extras
        assert extras["shed"] > 0 and extras["surrendered"] > 0, extras
        outcomes = attribute_misses(obs.sink.events).outcomes
        assert outcomes["met"] + outcomes["late"] == report.completed
        assert outcomes["expired"] == report.expired
        assert outcomes["shed"] == extras["shed"]
        assert outcomes["surrendered"] == extras["surrendered"]
        assert sum(outcomes.values()) == extras["accepted"]
        assert extras["open"] == 0 and front.master.records == {}

    def test_submissions_during_drain_are_rejected(
        self, assert_no_leaked_children
    ):
        # In-flight work on a slowed clock keeps the drain window open
        # long enough to probe it; an idle drain finishes instantly.
        service = smoke_service(
            stop_when_idle=False, drain_grace_seconds=8.0
        )
        service = dataclasses.replace(
            service,
            cluster=dataclasses.replace(service.cluster, seconds_per_unit=0.05),
        )
        with live_service(service) as (front, _workers, _box):
            await_ready(front)
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            try:
                inflight = client.submit(min(front.templates))
                client.poll(0.2)
                assert inflight.accepted is True
                front.request_stop("early-stop")
                deadline = time.monotonic() + 10.0
                while not front.draining and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert front.draining
                late = client.submit(min(front.templates))
                assert client.drain(timeout=60.0)
                assert late.accepted is False
                assert late.reject_reason == "draining"
            finally:
                client.close()


class TestElasticMembership:
    def test_late_join_expands_the_live_pool(
        self, assert_no_leaked_children
    ):
        service = smoke_service(workers=2, stop_when_idle=False)
        with live_service(service) as (front, workers, box):
            await_ready(front)
            # An index beyond the data placement: pure elastic capacity.
            workers.append(
                spawn_worker(service.cluster.with_port(front.master.port), 5)
            )
            deadline = time.monotonic() + 30.0
            while 5 not in front.master.workers and time.monotonic() < deadline:
                time.sleep(0.05)
            assert 5 in front.master.workers, "late HELLO was not registered"
            client = ServiceClient.connect("127.0.0.1", front.master.port)
            try:
                for template_id in sorted(front.templates)[:8]:
                    client.submit(template_id)
                assert client.drain(timeout=60.0)
            finally:
                client.close()
        report = box["report"]
        assert report.extras["distinct_workers"] == 3
        assert report.guaranteed_violations == 0
