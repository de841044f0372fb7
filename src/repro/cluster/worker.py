"""A working processor as a real OS process.

Each worker rebuilds the distributed database and transaction workload from
the shared ``(config, seed)`` pair — byte-identical to the master's copy, so
an ``ASSIGN`` only needs a task id, never data.  On assignment the worker
*actually executes* the transaction through the database layer (key-index
probe or partition scan against its resident sub-databases; the global
executor stands in for a remote fetch when the partition lives elsewhere)
and reports the measured checking cost against the master's worst-case
estimate.

**Pacing.**  The scheduler's guarantees are stated in virtual cost units;
Python executes a probe much faster than ``seconds_per_unit`` maps it.  The
worker therefore pads each task to its scaled *actual* cost with sliced
sleeps, sending heartbeats between slices so a long task never looks like a
dead worker.  Actual cost never exceeds the estimate (the estimate is
worst-case by construction), so real completion always lands at or before
the point the master budgeted.

**Failure injection.**  A worker whose :class:`~repro.cluster.failure.
FailurePlan` comes due dies with ``os._exit`` — no goodbye frame, no flush
— which is exactly the fail-stop silence the master's heartbeat monitor
exists to detect.

**Telemetry.**  When the config's ``telemetry`` flag is on, the worker
instruments itself into a :class:`~repro.cluster.telemetry.TelemetryBuffer`
(execution start/finish with overrun accounting, heartbeat lag, lifecycle
markers) and drains it in batched ``TELEMETRY`` frames only on quantum
boundaries — after a task completes, with heartbeats, and at shutdown — so
tracing never sits on the execution path.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, Optional

from ..observability import (
    OFF,
    Instrumentation,
    MetricsRegistry,
    StructuredLogger,
    get_instrumentation,
)
from . import protocol
from .config import (
    POLL_INTERVAL,
    STARTUP_TIMEOUT,
    ClusterConfig,
    build_cluster_workload,
)
from .failure import FAILURE_EXIT_CODE
from .network import ConnectionLost, WorkerChannel
from .telemetry import TelemetryBuffer


class ClusterWorker:
    """One working processor: registers, executes, reports, heartbeats."""

    def __init__(
        self,
        config: ClusterConfig,
        index: int,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        # Indexes at or beyond num_workers are legal: elastic workers that
        # join a live pool hold no data residency but add capacity.
        if index < 0:
            raise ValueError(f"worker index {index} must be non-negative")
        self.config = config
        self.index = index
        self._telemetry: Optional[TelemetryBuffer] = None
        if instrumentation is not None:
            base_obs = instrumentation
        elif config.telemetry:
            # Spawned workers start with the NULL default; the config flag
            # is how the master's tracing reaches across the process
            # boundary.  Events buffer locally and ship on quantum
            # boundaries — the worker never touches the trace file itself.
            base_obs = Instrumentation(
                metrics=MetricsRegistry(),
                logger=StructuredLogger(name="repro.worker", level=OFF),
                sink=TelemetryBuffer(),
            )
        else:
            base_obs = get_instrumentation()
        if isinstance(base_obs.sink, TelemetryBuffer):
            self._telemetry = base_obs.sink
        self.obs = (
            base_obs.bind(component="worker", worker=index)
            if base_obs.enabled
            else base_obs
        )
        experiment = config.experiment
        self.database, tasks, transactions = build_cluster_workload(
            experiment, experiment.base_seed
        )
        self.transactions: Dict[int, object] = {
            txn.txn_id: txn for txn in transactions
        }
        self.estimates: Dict[int, float] = {
            task.task_id: task.processing_time for task in tasks
        }
        placement = self.database.placement
        self._global = self.database.global_executor()
        if 0 <= index < placement.num_processors:
            self.residency = frozenset(placement.contents_of(index))
            self._local = self.database.executor_for(index)
        else:
            # Elastic joiner beyond the data placement: nothing resident,
            # every partition access goes through the global executor.
            self.residency = frozenset()
            self._local = self._global
        self.tasks_done = 0
        self._queue: Deque[Dict[str, object]] = deque()
        self._channel: Optional[WorkerChannel] = None
        self._started = 0.0
        self._last_beat = 0.0

    # ----- lifecycle -------------------------------------------------------

    def run(self) -> int:
        """Connect, serve until SHUTDOWN (or master loss); tasks completed."""
        self._started = time.monotonic()
        try:
            self._channel = WorkerChannel.connect(
                self.config.host, self.config.port
            )
            self._register()
            self._serve()
        except ConnectionLost:
            # The master is gone; there is nobody left to report to.
            self.obs.logger.warning("master connection lost; exiting")
        finally:
            if self._channel is not None:
                self._channel.close()
        return self.tasks_done

    def _register(self) -> None:
        channel = self._channel
        channel.send(
            protocol.hello(
                self.index,
                os.getpid(),
                self.config.host,
                mono=time.monotonic(),
            )
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            messages = channel.poll(POLL_INTERVAL)
            for position, message in enumerate(messages):
                if message.get("type") == protocol.WELCOME:
                    granted = frozenset(message.get("residency", ()))
                    if granted != self.residency:
                        # Determinism broke: master and worker rebuilt
                        # different placements from the same seed.
                        raise RuntimeError(
                            f"residency mismatch on worker {self.index}: "
                            f"master says {sorted(granted)}, local build "
                            f"says {sorted(self.residency)}"
                        )
                    self._last_beat = time.monotonic()
                    if self.obs.enabled:
                        self.obs.emit(
                            "worker_start",
                            pid=os.getpid(),
                            residency=sorted(self.residency),
                        )
                    self._flush_telemetry()
                    # The master may pipeline work right behind the
                    # WELCOME (service mode dispatches the moment the
                    # fleet is up), so frames can share this poll batch.
                    for trailing in messages[position + 1:]:
                        if trailing.get("type") == protocol.ASSIGN:
                            self._queue.append(trailing)
                        else:
                            self.obs.logger.warning(
                                "unexpected message behind WELCOME",
                                type=trailing.get("type"),
                            )
                    return
            self._maybe_die()
        raise ConnectionLost(f"no WELCOME within {STARTUP_TIMEOUT}s")

    def _serve(self) -> None:
        channel = self._channel
        while True:
            self._maybe_die()
            self._maybe_heartbeat()
            # Drain the wire promptly while busy; sleep in poll when idle.
            timeout = 0.0 if self._queue else POLL_INTERVAL
            for message in channel.poll(timeout):
                kind = message.get("type")
                if kind == protocol.ASSIGN:
                    self._queue.append(message)
                elif kind == protocol.SHUTDOWN:
                    self.obs.logger.info(
                        "shutdown received",
                        reason=message.get("reason"),
                        done=self.tasks_done,
                    )
                    if self.obs.enabled:
                        self.obs.emit(
                            "worker_shutdown",
                            tasks_done=self.tasks_done,
                            reason=message.get("reason"),
                        )
                    # Last chance for buffered events to reach the trace;
                    # a failed flush means the master is gone and the
                    # events die with the worker, as a crash's would.
                    try:
                        self._flush_telemetry()
                    except ConnectionLost:
                        pass
                    return
                else:
                    self.obs.logger.warning(
                        "unexpected message at worker", type=kind
                    )
            if self._queue:
                self._execute(self._queue.popleft())

    # ----- execution -------------------------------------------------------

    def _execute(self, assignment: Dict[str, object]) -> None:
        task_id = int(assignment["task_id"])
        # Service mode mints fresh task ids per submission; the ASSIGN then
        # carries the workload template to actually execute.  -1 (or an
        # absent field from a v2-era test double) means batch mode, where
        # the task id is the template id.
        template_id = int(assignment.get("template_id", -1))
        if template_id < 0:
            template_id = task_id
        txn = self.transactions.get(template_id)
        if txn is None:
            self.obs.logger.warning(
                "unknown task assigned", task=task_id, template=template_id
            )
            return
        if self.obs.enabled:
            self.obs.emit(
                "task",
                transition="exec_started",
                task_id=task_id,
                queue_depth=len(self._queue),
            )
        started = time.perf_counter()
        target = txn.target_subdb(self.database.schema)
        # A resident partition runs on the local replica set; a non-resident
        # one goes through the global executor — the stand-in for fetching
        # the partition remotely, whose wire time the padded
        # ``communication_cost`` accounts for.
        executor = self._local if target in self.residency else self._global
        outcome = executor.execute(txn)
        communication = float(assignment.get("communication_cost", 0.0))
        actual_units = outcome.cost + communication
        estimate_units = float(
            assignment.get(
                "total_cost", self.estimates.get(template_id, outcome.cost)
            )
        )
        elapsed = time.perf_counter() - started
        budget_seconds = self.config.units_to_seconds(actual_units)
        self._paced_sleep(budget_seconds - elapsed)
        exec_seconds = time.perf_counter() - started
        self._channel.send(
            protocol.task_done(
                task_id=task_id,
                worker_id=self.index,
                actual_cost=actual_units,
                estimated_cost=estimate_units,
                exec_seconds=exec_seconds,
            )
        )
        self.tasks_done += 1
        if self.obs.enabled:
            # Overrun is measured against the master's worst-case budget:
            # a positive value means the checking work physically outran
            # the time the guarantee reserved for it.
            budget_estimate = self.config.units_to_seconds(estimate_units)
            self.obs.emit(
                "task",
                transition="exec_finished",
                task_id=task_id,
                actual_cost=actual_units,
                planned_cost=estimate_units,
                exec_seconds=round(exec_seconds, 6),
                budget_seconds=round(budget_estimate, 6),
                overrun_seconds=round(
                    max(0.0, exec_seconds - budget_estimate), 6
                ),
            )
            self.obs.metrics.counter("cluster_worker_tasks_done").inc()
            self.obs.metrics.counter(
                "cluster_worker_tuples_checked"
            ).inc(outcome.tuples_checked)
        # Quantum boundary: the task is done and reported; flushing now
        # keeps telemetry off the execution path itself.
        self._flush_telemetry()

    def _paced_sleep(self, seconds: float) -> None:
        """Pad execution to the scaled cost without going silent.

        Sleeps in slices no longer than a quarter heartbeat interval,
        beating and checking the failure plan between slices — a worker
        paced through a long task stays visibly alive, and an injected
        crash lands mid-execution (the interesting case: its queue holds
        surrendered work).
        """
        slice_cap = self.config.heartbeat_interval / 4.0
        deadline = time.perf_counter() + seconds
        while True:
            self._maybe_die()
            self._maybe_heartbeat()
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            time.sleep(min(remaining, slice_cap))

    # ----- liveness --------------------------------------------------------

    def _maybe_heartbeat(self) -> None:
        now = time.monotonic()
        gap = now - self._last_beat
        if gap < self.config.heartbeat_interval / 2.0:
            return
        if self.obs.enabled and gap > self.config.heartbeat_interval:
            # The beat cadence slipped past a full interval: the worker
            # was wedged in something longer than a pacing slice (GC,
            # swap, a slow probe) — exactly the lag that makes the master
            # suspect death, so it goes in the trace.
            self.obs.emit("heartbeat_lag", gap_seconds=round(gap, 6))
        self._last_beat = now
        self._channel.send(
            protocol.heartbeat(
                self.index, len(self._queue), self.tasks_done, mono=now
            )
        )
        # Heartbeats mark quantum boundaries for idle workers; piggyback
        # any buffered telemetry on the same wakeup.
        self._flush_telemetry()

    def _flush_telemetry(self) -> None:
        """Ship buffered trace events to the master in batched frames."""
        buffer = self._telemetry
        if buffer is None or not buffer or self._channel is None:
            return
        while buffer:
            batch = buffer.drain(protocol.TELEMETRY_BATCH_SIZE)
            if not batch:
                break
            self._channel.send(
                protocol.telemetry(self.index, batch, mono=time.monotonic())
            )

    def _maybe_die(self) -> None:
        """Fail-stop: drop dead mid-anything, exactly as a crash would."""
        plan = self.config.failure
        if plan is None:
            return
        if plan.due(self.index, time.monotonic() - self._started):
            # os._exit skips atexit/flush/close: the socket dies with the
            # process and the master hears nothing but silence.
            os._exit(FAILURE_EXIT_CODE)


def worker_main(config: ClusterConfig, index: int) -> int:
    """Spawn entry point: build and run one worker; returns its exit code.

    Must stay importable at module top level (``multiprocessing`` spawn
    pickles the function reference, not the closure).
    """
    worker = ClusterWorker(config, index)
    try:
        worker.run()
    except ConnectionLost:
        return 1
    return 0
