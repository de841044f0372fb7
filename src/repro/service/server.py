"""Run one scheduler service end to end: master, fleet, churn, teardown.

:func:`run_service` is the service-mode sibling of
:func:`~repro.cluster.launcher.launch_cluster`, and :func:`serve` walks
the one master through the same public lifecycle the launcher does.  The
differences are exactly the ones a long-lived service needs:

* a :class:`~repro.service.master.ServiceFront` (admission, streaming
  clients, drain-on-stop) sits on the master in place of a closed
  workload, and is asked around every step whether to drain or stop;
* the fleet is *elastic*: :class:`~repro.service.config.JoinPlan` entries
  schedule extra workers to join mid-run (new capacity or restarts), and
  the embedded :class:`~repro.cluster.failure.FailurePlan` still scripts
  fail-stops — every spawned process, early or late, is reaped in the
  same ``finally``;
* ``SIGTERM``/``SIGINT`` can be wired to a graceful drain instead of
  killing the process mid-guarantee;
* an optional ``drive_load`` callable runs in a background thread against
  the bound port, which is how the in-process backend and the smoke tests
  close the loop without a second process.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Callable, Optional, Sequence

from ..cluster.launcher import WorkerFleet
from ..cluster.master import emit_run_end
from ..observability import Instrumentation, get_instrumentation
from ..runtime.report import RunReport
from .config import JoinPlan, ServiceConfig
from .master import ServiceFront


def run_service(
    service: ServiceConfig,
    instrumentation: Optional[Instrumentation] = None,
    joins: Sequence[JoinPlan] = (),
    install_signal_handlers: bool = False,
    drive_load: Optional[Callable[[str, int], None]] = None,
) -> RunReport:
    """Serve until stop/duration/idle; always reaps every worker.

    ``joins`` schedules elastic mid-run worker joins (seconds measured
    from service start).  ``drive_load`` — if given — is called as
    ``drive_load(host, port)`` in a daemon thread once the master is
    bound; it is how harness runs co-locate the load generator.  With
    ``install_signal_handlers`` (main thread only), SIGTERM and SIGINT
    request a graceful drain instead of terminating the process.
    """
    obs = instrumentation or get_instrumentation()
    front = ServiceFront.on_whole_fleet(service, instrumentation=obs)
    master = front.master
    cluster = service.cluster
    fleet = WorkerFleet(cluster, obs)

    def _join_fleet(plan: JoinPlan) -> None:
        if fleet.spawn(plan.worker_index, master.port):
            obs.logger.info(
                "elastic worker spawned",
                worker=plan.worker_index,
                after=plan.after_seconds,
            )

    timers = [
        threading.Timer(plan.after_seconds, _join_fleet, args=(plan,))
        for plan in joins
    ]
    restored = _install_handlers(front, obs) if install_signal_handlers else []
    load_thread: Optional[threading.Thread] = None
    try:
        for index in range(cluster.num_workers):
            fleet.spawn(index, master.port)
        for timer in timers:
            timer.daemon = True
            timer.start()
        if drive_load is not None:
            load_thread = threading.Thread(
                target=drive_load,
                args=("127.0.0.1", master.port),
                name="repro-service-load",
                daemon=True,
            )
            load_thread.start()
        report = serve(front)
    finally:
        for timer in timers:
            timer.cancel()
        master.close()
        if load_thread is not None:
            # The master is gone, so the client sees ConnectionLost and
            # returns; the join is just letting it notice.
            load_thread.join(timeout=5.0)
        for handler_signal, previous in restored:
            signal.signal(handler_signal, previous)
        fleet.reap()
    return report


def serve(front: ServiceFront) -> RunReport:
    """Serve until the front's drain finishes; returns the report.

    The lifecycle every live run walks — ``await_workers``, the
    ``run_start`` header, ``start_clock``, ``step`` until done,
    ``shutdown``, ``report``, the ``run_end`` header — with the front
    asked before each step whether to begin a drain and after it whether
    the drain is over, and answering whatever is left before SHUTDOWN.
    Reaping the fleet and closing the hub stay with the caller.
    """
    master = front.master
    obs = master.obs
    master.await_workers()
    if obs.enabled:
        obs.emit(
            "run_start", workers=len(master.workers), tasks=len(master.records)
        )
    master.start_clock()
    front.start()
    while True:
        front.drain_if_due(time.monotonic())
        if front.finished(master.step()):
            break
    front.surrender()
    master.shutdown()
    report = front.stamp(master.report())
    emit_run_end(obs, report, [master])
    return report


def _install_handlers(front: ServiceFront, obs: Instrumentation):
    """Route SIGTERM/SIGINT into a graceful drain; returns the old handlers."""
    if threading.current_thread() is not threading.main_thread():
        obs.logger.warning(
            "signal handlers requested off the main thread; skipping"
        )
        return []

    def _request_drain(signum, _frame) -> None:
        front.request_stop(reason=signal.Signals(signum).name.lower())

    restored = []
    for handler_signal in (signal.SIGTERM, signal.SIGINT):
        restored.append(
            (handler_signal, signal.signal(handler_signal, _request_drain))
        )
    return restored
