"""Direct timings of the wire and admission layers' public functions.

The service runs in another process, so its ``cluster`` and ``service``
layers cannot be followed with spans from here.  These probes call the same
public functions the master calls, in this process, and are cheap enough to
run in every traced run: they measure the code, not a workload.
"""

from __future__ import annotations

import time
from typing import Dict

from stats import median


def codec_msgs_per_s(rounds: int = 400) -> float:
    """Messages per second through pack + ``FrameDecoder.feed`` (+ unpack).

    One round is the six frame kinds a submission causes between client,
    master and worker.
    """
    from repro.cluster import protocol

    mix = [
        protocol.submit(7, 3, relative_deadline=120.0, mono=12.5),
        protocol.accept(7, 1031, 482.25),
        protocol.reject(8, "backlog-full", "reject-newest"),
        protocol.result(7, 1031, "completed", True, 431.5),
        protocol.assign(1031, 1, 95.0, 0.0, 482.25, template_id=3),
        protocol.task_done(1031, 1, 88.0, 95.0, 0.0176),
    ]
    decoder = protocol.FrameDecoder()
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(rounds):
            for message in mix:
                decoder.feed(protocol.pack(message))
        rates.append(rounds * len(mix) / (time.perf_counter() - start))
    return median(rates)


def hub_rtt_us(echoes: int = 400) -> float:
    """Median ``WorkerChannel`` -> ``MessageHub`` -> ``WorkerChannel`` echo."""
    from repro.cluster import protocol
    from repro.cluster.network import MESSAGE, MessageHub, WorkerChannel

    hub = MessageHub()
    channel = None
    try:
        channel = WorkerChannel.connect(hub.host, hub.port)
        message = protocol.submit(1, 1)
        trips = []
        for _ in range(echoes):
            start = time.perf_counter()
            channel.send(message)
            conn_id = None
            while conn_id is None:
                for event in hub.poll(1.0):
                    if event.kind == MESSAGE:
                        conn_id = event.conn_id
            hub.send(conn_id, message)
            while not channel.poll(1.0):
                pass
            trips.append(time.perf_counter() - start)
    finally:
        if channel is not None:
            channel.close()
        hub.close()
    return median(trips) * 1e6


def decide_us(backlog: int, calls: int = 2000) -> float:
    """Median microseconds of one ``reject-newest`` decision at a backlog."""
    from repro.core.task import Task
    from repro.service.admission import (
        AdmissionState,
        QueuedTask,
        build_policy,
    )

    policy = build_policy("reject-newest")
    pending = tuple(
        QueuedTask(task_id=i, cost=10.0 + i % 7, deadline=500.0 + i)
        for i in range(backlog)
    )
    state = AdmissionState(
        now=0.0, workers=2, capacity_units=1e9, pending=pending
    )
    task = Task(
        task_id=backlog, processing_time=12.0, arrival_time=0.0, deadline=400.0
    )
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls // 5):
            policy.decide(task, 12.0, state)
        batches.append((time.perf_counter() - start) / (calls // 5))
    return median(batches) * 1e6


def run_probes() -> Dict[str, float]:
    """Every probe, keyed by its layer metric."""
    return {
        "cluster.codec_msgs_per_s": codec_msgs_per_s(),
        "cluster.hub_rtt_us": hub_rtt_us(),
        "service.decide_us_b16": decide_us(16),
        "service.decide_us_b512": decide_us(512),
    }
