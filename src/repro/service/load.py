"""Open-loop load generation against a running scheduler service.

An *open-loop* generator submits on its own clock — arrivals never slow
down because the service is struggling, which is exactly the regime where
admission backpressure matters (a closed loop would self-throttle and hide
overload).  Arrival times come from any registered
:class:`~repro.workload.arrivals.ArrivalProcess`; the mean arrival rate is
calibrated so ``offered_load = 1.0`` offers the fleet exactly the work it
can clear:

    ``rate = offered_load * workers / mean_template_cost``  [tasks/unit]

(:func:`~repro.workload.arrivals.arrival_rate`, as in the seeded draw), so
offered load means the same thing on every backend.  Virtual arrival times map to
the wall through the service's ``seconds_per_unit``.

Templates are the deterministically rebuilt workload transactions (the
generator never ships data, only template ids); the submission order is a
seeded shuffle, so a ``(spec, seed)`` pair replays the identical stream.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.config import build_cluster_workload
from ..cluster.network import ConnectionLost
from ..experiments.config import ExperimentConfig
from ..workload.arrivals import ARRIVAL_NAMES, arrival_rate, make_arrival
from .client import ServiceClient


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop load run against a service.

    ``experiment`` must match the serve side's (same template universe and
    mean cost — both sides rebuild it from the config); ``submissions``
    defaults to the experiment's transaction count.  ``seconds_per_unit``
    must equal the service's so virtual arrival times land on its wall
    clock at the intended rate.
    """

    experiment: ExperimentConfig
    arrival: str = "poisson"
    offered_load: float = 1.0
    submissions: int = 0
    seed: int = 0
    seconds_per_unit: float = 0.001
    #: Extra wall seconds to wait for straggler RESULTs after the last
    #: submission (on top of the largest relative deadline).
    settle_grace_seconds: float = 5.0
    #: Concurrent client connections.  The arrival stream is generated
    #: once, then dealt round-robin across the clients, so the *union*
    #: of what N clients offer is the same stream one client would have
    #: offered — only the connection fan-in changes.
    clients: int = 1

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_NAMES:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_NAMES}, "
                f"got {self.arrival!r}"
            )
        if self.offered_load <= 0:
            raise ValueError("offered_load must be positive")
        if self.submissions < 0:
            raise ValueError("submissions must be non-negative")
        if self.seconds_per_unit <= 0:
            raise ValueError("seconds_per_unit must be positive")
        if self.clients < 1:
            raise ValueError("clients must be at least 1")


@dataclass
class LoadReport:
    """What one load run observed, from the client's side of the wire."""

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    hits: int = 0
    expired: int = 0
    shed: int = 0
    surrendered: int = 0
    unsettled: int = 0
    wall_seconds: float = 0.0
    offered_load: float = 0.0
    arrival: str = ""
    reject_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        """Deadline compliance against *offered* load (all submissions)."""
        if self.submitted == 0:
            return 0.0
        return self.hits / self.submitted

    def render(self) -> str:
        """Human-readable digest for the ``repro load`` CLI."""
        lines = [
            (
                f"offered load {self.offered_load:.2f} ({self.arrival}): "
                f"{self.submitted} submitted in {self.wall_seconds:.2f}s"
            ),
            (
                f"accepted {self.accepted}, rejected {self.rejected} "
                f"({self._reasons_text()})"
            ),
            (
                f"completed {self.completed} (deadline hits {self.hits}), "
                f"expired {self.expired}, shed {self.shed}, "
                f"surrendered {self.surrendered}, unsettled {self.unsettled}"
            ),
            f"compliance vs offered: {100.0 * self.hit_ratio:.1f}%",
        ]
        return "\n".join(lines)

    def _reasons_text(self) -> str:
        if not self.reject_reasons:
            return "no rejects"
        return ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.reject_reasons.items())
        )


def run_load(
    host: str,
    port: int,
    spec: LoadSpec,
) -> LoadReport:
    """Drive one open-loop load run; returns the client-side report.

    Blocks for the stream's duration plus a settle window.  Never raises
    on a vanished service mid-run — the report's ``unsettled`` count says
    how much was abandoned, and the caller judges it.

    With ``spec.clients > 1`` the same stream is dealt round-robin
    across that many concurrent connections (one thread each, sharing
    one start instant so absolute submission times are unchanged) and
    the per-client tallies are summed into one report.
    """
    experiment = spec.experiment
    _, tasks, _ = build_cluster_workload(experiment, experiment.base_seed)
    templates = sorted(tasks, key=lambda t: t.task_id)
    submissions = spec.submissions or experiment.num_transactions
    rng = random.Random(spec.seed or experiment.base_seed)
    order: List[int] = [
        templates[i % len(templates)].task_id for i in range(submissions)
    ]
    rng.shuffle(order)
    rate = arrival_rate(experiment, spec.offered_load)
    horizon = submissions / rate
    times = make_arrival(spec.arrival, rate, horizon=horizon).arrival_times(
        submissions, rng
    )
    max_laxity = max(
        (t.deadline - t.arrival_time for t in templates), default=0.0
    )
    stream = list(zip(times, order))
    started = time.monotonic()
    if spec.clients == 1:
        return _run_stream(host, port, spec, stream, started, max_laxity)
    shares = [stream[i :: spec.clients] for i in range(spec.clients)]
    reports: List[Optional[LoadReport]] = [None] * spec.clients
    failures: List[BaseException] = []

    def drive(index: int) -> None:
        try:
            reports[index] = _run_stream(
                host, port, spec, shares[index], started, max_laxity
            )
        except BaseException as error:  # re-raised on the caller's thread
            failures.append(error)

    threads = [
        threading.Thread(
            target=drive, args=(index,), name=f"repro-load-{index}"
        )
        for index in range(spec.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    merged = LoadReport(offered_load=spec.offered_load, arrival=spec.arrival)
    for report in reports:
        if report is None:
            continue
        merged.submitted += report.submitted
        merged.accepted += report.accepted
        merged.rejected += report.rejected
        merged.completed += report.completed
        merged.hits += report.hits
        merged.expired += report.expired
        merged.shed += report.shed
        merged.surrendered += report.surrendered
        merged.unsettled += report.unsettled
        merged.wall_seconds = max(merged.wall_seconds, report.wall_seconds)
        for reason, count in report.reject_reasons.items():
            merged.reject_reasons[reason] = (
                merged.reject_reasons.get(reason, 0) + count
            )
    return merged


def _run_stream(
    host: str,
    port: int,
    spec: LoadSpec,
    stream: List[Tuple[float, int]],
    started: float,
    max_laxity: float,
) -> LoadReport:
    """One connection's share of the run: submit on the clock, then settle."""
    report = LoadReport(
        offered_load=spec.offered_load, arrival=spec.arrival
    )
    client = ServiceClient.connect(host, port)
    lost = False
    try:
        for arrival_v, template_id in stream:
            due = started + arrival_v * spec.seconds_per_unit
            while True:
                now = time.monotonic()
                if now >= due:
                    break
                try:
                    client.poll(min(due - now, 0.05))
                except ConnectionLost:
                    lost = True
                    break
            if lost:
                break
            try:
                client.submit(template_id)
            except ConnectionLost:
                lost = True
                break
        if not lost:
            settle = (
                max_laxity * spec.seconds_per_unit
                + spec.settle_grace_seconds
            )
            client.drain(settle)
    finally:
        report.wall_seconds = time.monotonic() - started
        _tally(client, report)
        client.close()
    return report


def _tally(client: ServiceClient, report: LoadReport) -> None:
    """Fold the client ledger into the report counters."""
    report.submitted = len(client.outcomes)
    for outcome in client.outcomes.values():
        if not outcome.settled:
            report.unsettled += 1
            continue
        if outcome.accepted is False:
            report.rejected += 1
            reason = outcome.reject_reason or "unknown"
            report.reject_reasons[reason] = (
                report.reject_reasons.get(reason, 0) + 1
            )
            continue
        report.accepted += 1
        if outcome.status == "completed":
            report.completed += 1
            if outcome.met_deadline:
                report.hits += 1
        elif outcome.status == "expired":
            report.expired += 1
        elif outcome.status == "shed":
            report.shed += 1
        elif outcome.status == "surrendered":
            report.surrendered += 1
