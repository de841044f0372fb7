"""``serve-stream``: a live scheduler service under the benchmark's own load.

The service (master + two workers) runs in a spawned process tree; this
process is the load generator.  Four phases run against one service, with a
full drain between them:

``in-capacity``  open loop, evenly spaced, 40/s — the accept/dispatch path;
``rate-1000``    open loop, seeded Poisson, 1000/s — admission latency;
``rate-2000``    open loop, seeded Poisson, 2000/s — the next ladder rung;
``saturate``     closed loop, 64 submissions unanswered at any time —
                 answers per second with the master's loop saturated.

Open-loop latencies are taken from the instant a SUBMIT was *due*, so a
generator stall is charged to every submission it delayed, and the
generator's own lateness is reported next to them.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from common import HERE
from stats import highest_supported_percentile, median, percentile

#: Share of ``--seconds`` each phase loads the service for.
PHASE_SHARES = (
    ("in-capacity", 0.20),
    ("rate-1000", 0.35),
    ("rate-2000", 0.15),
    ("saturate", 0.30),
)
OPEN_LOOP_RATES = {"in-capacity": 40.0, "rate-1000": 1000.0, "rate-2000": 2000.0}
CLOSED_LOOP_OUTSTANDING = 64
TEMPLATES = 64

#: An open-loop phase whose generator ran later than this is re-run once:
#: the limit is on p99 lateness, or on the highest percentile the phase's
#: sample supports when that is lower, and on any single stall.
LATE_LIMIT_S = 0.005
STALL_LIMIT_S = 0.050
#: Closed-loop throughput is the median over windows this long, so one
#: descheduled moment does not set the phase's number.
RATE_WINDOW_S = 0.5
#: The ladder's latency limit on p90, whole phase and last third alike.
SUSTAINED_P90_LIMIT_S = 0.005

DRAIN_TIMEOUT_S = 15.0
STARTUP_TIMEOUT_S = 60.0


@dataclass
class Entry:
    """What the generator knows about one submission."""

    phase: str
    due: float
    sent: float
    answered: Optional[float] = None
    accepted: bool = False
    results: int = 0
    settled: Optional[float] = None
    met_deadline: bool = False


class Ledger:
    """Every submission by request id, stamped as frames come back."""

    def __init__(self) -> None:
        self.entries: Dict[int, Entry] = {}
        self.unanswered = 0
        #: Submissions still owed an answer, or an ACCEPT's RESULT.
        self.owed = 0

    def sent(self, request_id: int, phase: str, due: float, now: float) -> None:
        self.entries[request_id] = Entry(phase=phase, due=due, sent=now)
        self.unanswered += 1
        self.owed += 1

    def absorb(self, messages: Sequence[dict], now: float) -> None:
        """Stamp the frames one poll returned with the poll's return time."""
        for message in messages:
            entry = self.entries.get(int(message.get("request_id", -1)))
            if entry is None:
                continue
            kind = message.get("type")
            if kind in ("ACCEPT", "REJECT"):
                if entry.answered is None:
                    self.unanswered -= 1
                    entry.answered = now
                    entry.accepted = kind == "ACCEPT"
                    self.owed -= kind == "REJECT"
            elif kind == "RESULT":
                self.owed -= entry.results == 0
                entry.results += 1
                entry.settled = now
                entry.met_deadline = bool(message.get("met_deadline"))

    def of_phase(self, phase: str) -> List[Entry]:
        return [e for e in self.entries.values() if e.phase == phase]


def open_loop(
    client,
    ledger: Ledger,
    phase: str,
    dues: Sequence[float],
    templates: Sequence[int],
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Send each SUBMIT when it falls due, absorbing answers in between."""
    index = 0
    while index < len(dues):
        now = clock()
        if now >= dues[index]:
            outcome = client.submit(templates[index])
            ledger.sent(outcome.request_id, phase, dues[index], now)
            index += 1
            wait = 0.0  # behind or on time: just collect what is there
        else:
            wait = min(dues[index] - now, 0.05)
        messages = client.poll(wait)
        if messages:
            ledger.absorb(messages, clock())


def closed_loop(
    client,
    ledger: Ledger,
    phase: str,
    seconds: float,
    rng: random.Random,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Keep a fixed number of submissions unanswered for ``seconds``."""
    before = ledger.unanswered
    end = clock() + seconds
    while clock() < end:
        while ledger.unanswered - before < CLOSED_LOOP_OUTSTANDING:
            now = clock()
            outcome = client.submit(rng.randrange(TEMPLATES))
            ledger.sent(outcome.request_id, phase, now, now)
        messages = client.poll(0.05)
        if messages:
            ledger.absorb(messages, clock())


def drain(client, ledger: Ledger, timeout: float = DRAIN_TIMEOUT_S) -> bool:
    """Poll until nothing is owed; False when ``timeout`` passes first."""
    deadline = time.monotonic() + timeout
    while ledger.owed:
        if time.monotonic() >= deadline:
            return False
        messages = client.poll(0.05)
        if messages:
            ledger.absorb(messages, time.monotonic())
    return True


def schedule(phase: str, start: float, seconds: float, rng: random.Random):
    """Due times of one open-loop phase: even at 40/s, Poisson above."""
    rate = OPEN_LOOP_RATES[phase]
    if phase == "in-capacity":
        return [start + i / rate for i in range(int(seconds * rate))]
    dues, at = [], 0.0
    while True:
        at += rng.expovariate(rate)
        if at >= seconds:
            return dues
        dues.append(start + at)


@dataclass
class PhaseStats:
    """One phase as the generator saw it."""

    name: str
    seconds: float
    submitted: int = 0
    answered: int = 0
    accepted: int = 0
    hits: int = 0
    answers_per_s: float = 0.0
    admit_s: List[float] = field(default_factory=list)
    settle_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    rerun_of_invalid: bool = False

    @property
    def valid(self) -> bool:
        """Whether the generator kept its schedule closely enough."""
        if not self.late_s:
            return True
        supported = highest_supported_percentile(len(self.late_s)) or 50.0
        return (
            percentile(self.late_s, min(99.0, supported)) <= LATE_LIMIT_S
            and max(self.late_s) <= STALL_LIMIT_S
        )

    @property
    def sustained(self) -> bool:
        """p90 within the limit, and still within it in the last third."""
        if len(self.admit_s) < 30:
            return False
        last_third = self.admit_s[-(len(self.admit_s) // 3):]
        return (
            percentile(self.admit_s, 90) <= SUSTAINED_P90_LIMIT_S
            and percentile(last_third, 90) <= SUSTAINED_P90_LIMIT_S
        )


def phase_stats(
    name: str, begin: float, seconds: float, entries: Sequence[Entry]
) -> PhaseStats:
    """Summarize the ledger entries (in submission order) of a phase that
    loaded the service from ``begin`` for ``seconds``."""
    stats = PhaseStats(name=name, seconds=seconds, submitted=len(entries))
    windows = [0] * int(seconds / RATE_WINDOW_S)
    for entry in entries:
        if entry.answered is not None:
            window = int((entry.answered - begin) / RATE_WINDOW_S)
            if 0 <= window < len(windows):
                windows[window] += 1
        if name in OPEN_LOOP_RATES:
            stats.late_s.append(entry.sent - entry.due)
        if entry.answered is None:
            continue
        stats.answered += 1
        stats.admit_s.append(entry.answered - entry.due)
        if entry.accepted:
            stats.accepted += 1
            if entry.settled is not None:
                stats.settle_s.append(entry.settled - entry.due)
            stats.hits += entry.met_deadline
    stats.answers_per_s = (
        median(windows) / RATE_WINDOW_S if windows
        else stats.answered / seconds
    )
    return stats


class ServiceProcess:
    """The spawned service tree; leaving the context always reaps it."""

    def __init__(self, seed: int, trace: int = 0, trace_out: str = "") -> None:
        command = [
            sys.executable,
            str(HERE / "serve_child.py"),
            "--seed", str(seed),
            "--trace", str(trace),
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        # A session of its own: one killpg reaches the master and every
        # worker it spawned, whatever state they are in.
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        self.port = 0
        self.result: Optional[dict] = None

    def __enter__(self) -> "ServiceProcess":
        try:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], STARTUP_TIMEOUT_S
            )
            line = self.process.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("service did not announce a port")
            self.port = int(json.loads(line)["port"])
        except BaseException:
            self._reap(graceful_seconds=0.0)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # With its client gone the service goes idle, drains and exits by
        # itself; an error on this side does not wait for that.
        self._reap(graceful_seconds=20.0 if exc_type is None else 0.0)

    def _reap(self, graceful_seconds: float) -> None:
        process = self.process
        try:
            output, _ = process.communicate(timeout=graceful_seconds)
        except subprocess.TimeoutExpired:
            output = ""
            for sig, patience in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 5.0)):
                self._signal_tree(sig)
                try:
                    output, _ = process.communicate(timeout=patience)
                    break
                except subprocess.TimeoutExpired:
                    continue
        finally:
            # Workers that outlived the master (it was killed, not drained).
            self._signal_tree(signal.SIGKILL)
        lines = [line for line in (output or "").splitlines() if line.strip()]
        if process.returncode == 0 and lines:
            self.result = json.loads(lines[-1])

    def _signal_tree(self, sig: int) -> None:
        try:
            os.killpg(self.process.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass


def probe(client, ledger: Ledger, timeout: float = 30.0) -> None:
    """One SUBMIT answered end to end: the service is up and serving."""
    now = time.monotonic()
    outcome = client.submit(0)
    ledger.sent(outcome.request_id, "probe", now, now)
    if not drain(client, ledger, timeout):
        raise RuntimeError("service did not answer the probe SUBMIT")


def set_up_once(seed: int) -> float:
    """Seconds from spawning a service to its first answered SUBMIT."""
    from repro.service import ServiceClient

    started = time.monotonic()
    with ServiceProcess(seed) as service:
        client = ServiceClient.connect("127.0.0.1", service.port)
        try:
            probe(client, Ledger())
            return time.monotonic() - started
        finally:
            client.close()


@dataclass
class ServeRun:
    """Everything one serve-stream run measured."""

    setup_s: List[float]
    phases: Dict[str, PhaseStats]
    invalid: List[PhaseStats]
    attempted: int
    failed: int
    problems: List[str]
    service: dict


def run_serve(
    seed: int, seconds: float, setups: int, trace: int = 0, trace_out: str = ""
) -> ServeRun:
    """Set up ``setups`` times, then load the last service phase by phase."""
    from repro.service import ServiceClient

    setup_s = [set_up_once(seed) for _ in range(setups - 1)]
    rng = random.Random(seed)
    ledger = Ledger()
    phases: Dict[str, PhaseStats] = {}
    invalid: List[PhaseStats] = []
    problems: List[str] = []
    started = time.monotonic()
    with ServiceProcess(seed, trace, trace_out) as service:
        client = ServiceClient.connect("127.0.0.1", service.port)
        try:
            probe(client, ledger)
            setup_s.append(time.monotonic() - started)
            for name, share in PHASE_SHARES:
                stats = _run_phase(client, ledger, name, share * seconds, rng)
                if not stats.valid:
                    invalid.append(stats)
                    stats = _run_phase(
                        client, ledger, name, share * seconds, rng, rerun=True
                    )
                    stats.rerun_of_invalid = True
                    if not stats.valid:
                        invalid.append(stats)
                phases[name] = stats
        finally:
            client.close()
    attempted = len(ledger.entries)
    # Every SUBMIT gets one answer; an ACCEPT one RESULT, a REJECT none.
    failed = sum(
        entry.answered is None or entry.results != int(entry.accepted)
        for entry in ledger.entries.values()
    )
    if failed:
        problems.append(f"{failed} submissions unanswered or mis-settled")
    report = service.result
    if report is None:
        problems.append("service exited without a report")
        failed += 1
        report = {}
    else:
        accepted = sum(e.accepted for e in ledger.entries.values())
        checks = (
            ("submitted", report["submitted"], attempted),
            ("accepted", report["accepted"], accepted),
            ("accepted+rejected", report["accepted"] + report["rejected"],
             attempted),
        )
        for label, master_side, client_side in checks:
            if master_side != client_side:
                problems.append(
                    f"{label}: master {master_side} != client {client_side}"
                )
                failed += abs(master_side - client_side)
    return ServeRun(
        setup_s=setup_s,
        phases=phases,
        invalid=invalid,
        attempted=attempted,
        failed=min(failed, attempted),
        problems=problems,
        service=report,
    )


def _run_phase(
    client,
    ledger: Ledger,
    name: str,
    seconds: float,
    rng: random.Random,
    rerun: bool = False,
) -> PhaseStats:
    label = f"{name}#2" if rerun else name
    begin = time.monotonic()
    if name in OPEN_LOOP_RATES:
        # Start a little ahead so the first SUBMIT is not already late.
        dues = schedule(name, begin + 0.05, seconds, rng)
        templates = [rng.randrange(TEMPLATES) for _ in dues]
        open_loop(client, ledger, label, dues, templates)
    else:
        closed_loop(client, ledger, label, seconds, rng)
    loaded = time.monotonic() - begin
    drain(client, ledger)
    return phase_stats(name, begin, loaded, ledger.of_phase(label))


def ms(values: Sequence[float], q: float) -> float:
    """``q``-th percentile of seconds, in milliseconds (0 when empty)."""
    return percentile(values, q) * 1000.0 if values else 0.0


def end_to_end(run: ServeRun) -> Dict[str, float]:
    """The workload's end-to-end metrics (``setup_s`` aside)."""
    saturate = run.phases["saturate"]
    service = run.service
    return {
        "latency_ms": ms(run.phases["rate-1000"].admit_s, 50),
        "tasks_per_s": saturate.answers_per_s,
        "peak_rss_mb": (
            service.get("master_rss_kb", 0)
            + 2 * service.get("worker_rss_kb", 0)
        ) / 1024.0,
    }


def service_layer(run: ServeRun) -> Dict[str, float]:
    """The ``service.*`` layer metrics and the generator's lateness."""
    rate_1000 = run.phases["rate-1000"]
    rate_2000 = run.phases["rate-2000"]
    in_capacity = run.phases["in-capacity"]
    sustained = max(
        (
            OPEN_LOOP_RATES[stats.name]
            for stats in (rate_1000, rate_2000)
            if stats.sustained
        ),
        default=0.0,
    )
    late = [s for stats in run.phases.values() for s in stats.late_s]
    service = run.service
    return {
        "service.accepted": service.get("accepted", 0),
        "service.rejected": service.get("rejected", 0),
        "service.expired": service.get("expired", 0),
        "service.phases": service.get("phases", 0),
        "service.hit_ratio": (
            in_capacity.hits / in_capacity.submitted
            if in_capacity.submitted else 0.0
        ),
        "service.settle_p50_ms": ms(in_capacity.settle_s, 50),
        "service.admit_p50_ms": ms(rate_1000.admit_s, 50),
        "service.admit_p90_ms": ms(rate_1000.admit_s, 90),
        "service.admit_p99_ms": ms(rate_1000.admit_s, 99),
        "service.rate2000_p50_ms": ms(rate_2000.admit_s, 50),
        "service.rate2000_p90_ms": ms(rate_2000.admit_s, 90),
        "service.sustained_rate_per_s": sustained,
        "service.guarantee_misses": service.get("guaranteed_violations", 0),
        "service.tree_cpu_s": service.get("tree_cpu_s", 0.0),
        "bench.gen_late_p99_ms": ms(late, 99),
    }
