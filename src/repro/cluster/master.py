"""The live scheduling master: RT-SADS on a dedicated OS process.

This is the production-shaped counterpart of one
:class:`repro.simulator.runtime.DomainHost`: the same phase loop
(batch -> quantum -> search -> deliver), but time is the wall clock, the
"working processors" are worker processes reached over TCP, and delivery is
an ``ASSIGN`` message instead of a simulated ready-queue append.  The loop
itself lives in the backend-neutral
:class:`~repro.runtime.driver.PhaseDriver`; this module is the live
:class:`~repro.runtime.driver.PhaseHooks` implementation.

The paper's quantum criterion ``Q_s(j) <= max(Min_Slack, Min_Load)`` is
self-adjusted against *wall-clock* quantities: ``Min_Slack`` is computed at
the wall-derived virtual now, and ``Min_Load`` from the outstanding
(dispatched, unfinished) worst-case work per worker — a live upper bound on
each worker's remaining queue.

**Guarantee discipline.**  The search's feasibility test assumes delivery
by ``t_s + Q_s``; a real host can overshoot (interpreter jitter, message
floods), so the master re-validates every entry at dispatch time against a
fresh clock reading plus a safety margin: ``t_c + Load_k + (p + c) +
margin <= d``.  Only entries passing that re-check are dispatched and
counted *guaranteed*; the rest return to the driver's pending set and
re-enter the batch at the next phase.  This is what makes the paper's
theorem — no guaranteed task misses its deadline — hold under wall-clock
feasibility rather than simulated time.

**Failure handling.**  A worker that misses two heartbeat intervals (or
whose socket drops) is declared dead; its surrendered queue re-enters the
batch with guarantees revoked and is rescheduled on the survivors through
the normal feasibility path — the live analogue of ``extension_failures``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.affinity import UniformCommunicationModel, project_tasks
from ..core.task import Task
from ..experiments.runner import build_scheduler
from ..metrics.compliance import STATUS_COMPLETED, STATUS_EXPIRED
from ..observability import Instrumentation, get_instrumentation
from ..observability.clockskew import ClockOffsetEstimator
from ..runtime.driver import PhaseDriver, PhaseHooks
from ..runtime.report import RunReport
from . import protocol
from .config import ClusterConfig, build_cluster_workload
from .failure import HeartbeatMonitor
from .network import CONNECT, DISCONNECT, MESSAGE, MessageHub, NetworkEvent

#: Deadline-comparison slop in virtual units (mirrors the core EPSILON).
EPSILON = 1e-9

#: Transient task states of the live run; terminal states are the
#: canonical ones from :mod:`repro.metrics.compliance`.
PENDING = "pending"
DISPATCHED = "dispatched"
COMPLETED = STATUS_COMPLETED
EXPIRED = STATUS_EXPIRED


class ClusterError(RuntimeError):
    """The live run could not start or complete."""


class ClusterStartupError(ClusterError):
    """Not every worker registered within the startup timeout."""


class ClusterTimeoutError(ClusterError):
    """The run exceeded its hard wall-clock budget and was aborted."""


@dataclass
class LiveTaskRecord:
    """Lifecycle of one task through the live system (master's view)."""

    task: Task
    status: str = PENDING
    worker: Optional[int] = None
    guaranteed: bool = False
    dispatched_at: Optional[float] = None  # virtual units
    finished_at: Optional[float] = None  # virtual units
    planned_cost: Optional[float] = None
    actual_cost: Optional[float] = None
    reschedules: int = 0

    @property
    def met_deadline(self) -> bool:
        return (
            self.status == COMPLETED
            and self.finished_at is not None
            and self.finished_at <= self.task.deadline + EPSILON
        )


@dataclass
class _Dispatched:
    """One outstanding assignment on a worker's queue (master bookkeeping)."""

    task_id: int
    planned_cost: float
    deadline: float


@dataclass
class _WorkerState:
    """Registration and queue state of one worker process."""

    worker_id: int
    conn_id: int
    alive: bool = True
    tasks_done: int = 0
    outstanding: Dict[int, _Dispatched] = field(default_factory=dict)

    def outstanding_units(self) -> float:
        """Worst-case remaining work — the live ``Load_k`` upper bound."""
        return sum(d.planned_cost for d in self.outstanding.values())


def remap_tasks(
    tasks: Sequence[Task], alive: Sequence[int]
) -> List[Task]:
    """Project task affinities onto the alive-worker index space.

    The search scheduler addresses processors ``0..m-1``; with dead workers
    (or a domain owning only a slice of the fleet) the master schedules
    over its own workers only, so affinities referring to real worker ids
    are translated to positions in ``alive``.  Affinity to an absent
    worker simply drops out (the data's surviving replicas keep their
    entries; a fully-absent affinity set degrades to all-remote).
    """
    return project_tasks(tasks, alive)


class ClusterMaster(PhaseHooks):
    """Accepts workers, runs the scheduling loop, collects completions."""

    def __init__(
        self,
        config: ClusterConfig,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        base_obs = instrumentation or get_instrumentation()
        self.obs = (
            base_obs.bind(component="master") if base_obs.enabled else base_obs
        )
        experiment = config.experiment
        self.database, tasks, _transactions = build_cluster_workload(
            experiment, experiment.base_seed
        )
        self.comm = UniformCommunicationModel(experiment.remote_cost)
        self.scheduler = build_scheduler(
            config.scheduler_name, experiment, self.comm
        )
        # Binding happens here so the launcher can read the real port
        # before spawning workers against an ephemeral (port=0) config.
        self.hub = MessageHub(
            config.host, config.port, instrumentation=self.obs
        )
        self.records: Dict[int, LiveTaskRecord] = {}
        self.driver = PhaseDriver(scheduler=self.scheduler, hooks=self)
        self._install_workload(tasks)
        self.workers: Dict[int, _WorkerState] = {}
        self._conn_to_worker: Dict[int, int] = {}
        self.monitor = HeartbeatMonitor(
            config.heartbeat_interval, config.heartbeat_miss_factor
        )
        # Every worker frame carries the sender's monotonic clock; the
        # min-filter estimator learns each worker's offset so shipped
        # telemetry can merge onto the master's timeline.
        self.clock = ClockOffsetEstimator()
        self.guaranteed_violations = 0
        # Telemetry events each worker's bounded buffer had to drop
        # (worker_id -> count), folded into the run_end trace header.
        self.telemetry_dropped: Dict[int, int] = {}
        # Per-phase scratch set by loads() and consumed by deliver_entry():
        # the alive-worker index space and the accumulating queue picture.
        self._phase_alive: List[int] = []
        self._phase_cumulative: List[float] = []
        self._t0: Optional[float] = None
        self._start_wall: Optional[float] = None

    def _install_workload(self, tasks: Sequence[Task]) -> None:
        """Hand the deterministically rebuilt workload to the run.

        Batch mode: every task is known up front — create its record and
        stage the full arrival stream on the driver.  The streaming
        service subclass overrides this to keep the tasks as *templates*
        and mint records per submission instead.
        """
        self.records = {
            task.task_id: LiveTaskRecord(task=task) for task in tasks
        }
        self.driver.stage_arrivals(tasks)

    def _template_id(self, task_id: int) -> int:
        """Template id to stamp on ASSIGN frames for ``task_id``.

        Batch mode dispatches the workload tasks themselves, so the wire
        default (``-1`` = "task id *is* the template id") is correct; the
        service subclass maps minted submission ids back to templates.
        """
        return -1

    # ----- clocks ----------------------------------------------------------

    @property
    def port(self) -> int:
        return self.hub.port

    @property
    def expected_workers(self) -> int:
        """How many workers must register before the run starts.

        The whole fleet by default; a domain master (sharded mode)
        overrides this with the size of its own partition.
        """
        return self.config.num_workers

    def vnow(self) -> float:
        """Virtual time: wall seconds since readiness, in cost units."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() - self._t0) / self.config.seconds_per_unit

    # ----- lifecycle -------------------------------------------------------

    def run(self) -> RunReport:
        """Serve one complete workload; returns the aggregated report."""
        self._start_wall = time.monotonic()
        try:
            self._await_workers()
            # The virtual clock starts when the cluster is ready: worker
            # spawn time is deployment overhead, not scheduling overhead,
            # and the bursty workload "arrives" at readiness.
            self._t0 = time.monotonic()
            if self.obs.enabled:
                self.obs.emit(
                    "run_start",
                    workers=len(self.workers),
                    tasks=len(self.records),
                )
                self._emit_arrivals()
            self._loop()
        finally:
            self.shutdown()
        return self._build_report()

    def _emit_arrivals(self) -> None:
        """One "arrived" per task, mirroring the simulator's trace.

        Deadline + worst-case cost make the trace self-contained for the
        offline schedulability oracle even for tasks that expire before
        any other transition.
        """
        for task_id in sorted(self.records):
            task = self.records[task_id].task
            self.obs.emit(
                "task",
                transition="arrived",
                task_id=task_id,
                t=task.arrival_time,
                deadline=task.deadline,
                cost=task.processing_time,
            )

    def shutdown(self) -> None:
        """Broadcast SHUTDOWN, drain the last telemetry, close the hub.

        Idempotent: the sharded coordinator calls it on the success path
        and again from its ``finally`` cleanup.
        """
        if self.hub.closed:
            return
        try:
            self.hub.broadcast(protocol.shutdown())
            self._drain_shutdown()
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        self.hub.close()

    def _drain_shutdown(self) -> None:
        """Let SHUTDOWN leave the buffers; collect the final telemetry.

        Workers flush their last buffered events when SHUTDOWN arrives and
        then disconnect; the master keeps polling briefly so those frames
        merge into the trace instead of dying in a socket buffer.  Ends as
        soon as every live connection drops (or the grace expires) —
        untraced runs keep the old one-tick drain.
        """
        open_conns = sum(1 for s in self.workers.values() if s.alive)
        traced = self.obs.enabled or self.config.telemetry
        deadline = time.monotonic() + (0.5 if traced else 0.05)
        while open_conns > 0 and time.monotonic() < deadline:
            for event in self.hub.poll(0.05):
                if event.kind == DISCONNECT:
                    # An orderly exit, not a failure: count it down without
                    # the worker-lost path (nothing is left to surrender).
                    open_conns -= 1
                elif event.kind == MESSAGE and (
                    event.message.get("type") == protocol.TELEMETRY
                ):
                    self._on_telemetry(event.message)
            if not traced:
                break

    def _await_workers(self) -> None:
        """Block until every worker said HELLO (or the startup timeout)."""
        config = self.config
        deadline = time.monotonic() + config.startup_timeout
        while len(self.workers) < self.expected_workers:
            if time.monotonic() > deadline:
                raise ClusterStartupError(
                    f"only {len(self.workers)}/{self.expected_workers} "
                    f"workers registered within {config.startup_timeout}s"
                )
            for event in self.hub.poll(config.poll_interval):
                # Routed through the full dispatcher: a fast worker's first
                # TELEMETRY batch (its ``worker_start`` marker) can land
                # while the master still waits on slower registrations.
                self._handle_event(event)
        self.obs.logger.info(
            "cluster ready", workers=len(self.workers), port=self.port
        )

    def _register_worker(self, conn_id: int, message: Dict) -> None:
        """Register a HELLO into the live pool — at startup or mid-run.

        A HELLO after the run started is a *late join*, not a protocol
        error: the worker enters the alive pool and the next phase
        schedules onto it.  Indexes beyond the data placement get an empty
        residency (every access remote) — elastic capacity without
        re-replicating data.  A HELLO reusing the index of a dead worker
        is a restart and replaces the dead state (its queue was already
        surrendered).
        """
        worker_id = int(message["worker_id"])
        existing = self.workers.get(worker_id)
        if existing is not None and existing.alive:
            self.obs.logger.warning(
                "duplicate worker registration", worker=worker_id
            )
            return
        late = self._t0 is not None
        state = _WorkerState(worker_id=worker_id, conn_id=conn_id)
        self.workers[worker_id] = state
        self._conn_to_worker[conn_id] = worker_id
        self.monitor.register(worker_id, time.monotonic())
        self._observe_clock(worker_id, message.get("mono"))
        placement = self.database.placement
        if 0 <= worker_id < placement.num_processors:
            residency = placement.contents_of(worker_id)
        else:
            residency = frozenset()
        self.hub.send(conn_id, protocol.welcome(worker_id, residency))
        if late:
            self.obs.logger.info(
                "worker joined mid-run",
                worker=worker_id,
                rejoin=existing is not None,
            )
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_workers_registered").inc()
            if late:
                self.obs.metrics.counter("cluster_workers_joined_late").inc()
                self.obs.emit(
                    "worker_joined",
                    worker=worker_id,
                    t=self.vnow(),
                    rejoin=existing is not None,
                    resident=len(residency),
                )

    # ----- main loop -------------------------------------------------------

    def _loop(self) -> None:
        while not self.step():
            pass

    def step(self) -> bool:
        """One iteration of the scheduling loop; True when the run is done.

        Exposed so the sharded coordinator can round-robin several domain
        masters through one thread; :meth:`run` just iterates it.
        """
        config = self.config
        for event in self.hub.poll(config.poll_interval):
            self._handle_event(event)
        now_wall = time.monotonic()
        for worker_id in self.monitor.expired(now_wall):
            self._worker_lost(worker_id, reason="missed heartbeats")
        if now_wall - self._start_wall > config.max_wall_seconds:
            raise ClusterTimeoutError(
                f"live run exceeded {config.max_wall_seconds}s; "
                "aborting and shutting the cluster down"
            )
        self._schedule_ready_work()
        return self._finished()

    def _handle_event(self, event: NetworkEvent) -> None:
        if event.kind == CONNECT:
            return  # identity arrives with HELLO
        if event.kind == DISCONNECT:
            self._on_disconnect(event.conn_id)
            return
        message = event.message
        kind = message.get("type")
        if kind == protocol.HELLO:
            self._register_worker(event.conn_id, message)
        elif kind == protocol.HEARTBEAT:
            worker_id = int(message["worker_id"])
            self.monitor.beat(worker_id, time.monotonic())
            self._observe_clock(worker_id, message.get("mono"))
            if self.obs.enabled:
                self.obs.metrics.counter("cluster_heartbeats").inc()
        elif kind == protocol.TASK_DONE:
            self._on_task_done(message)
        elif kind == protocol.TELEMETRY:
            self._on_telemetry(message)
        else:
            self.obs.logger.warning(
                "unexpected message at master", type=kind
            )

    def _on_disconnect(self, conn_id: int) -> None:
        worker_id = self._conn_to_worker.pop(conn_id, None)
        if worker_id is not None:
            self._worker_lost(worker_id, reason="connection lost")

    # ----- telemetry merging ------------------------------------------------

    def _observe_clock(self, worker_id: int, sent_mono: object) -> None:
        """Fold one worker send-stamp into the offset estimate.

        Emits a ``clock_offset`` event whenever the estimate for a worker
        first appears or tightens, so the trace records the correction
        applied to every subsequently merged event.
        """
        if not isinstance(sent_mono, (int, float)) or sent_mono <= 0.0:
            return  # pre-v2 worker or constructor default: no sample
        before = self.clock.offset(worker_id)
        estimate = self.clock.observe(
            worker_id, float(sent_mono), time.monotonic()
        )
        if self.obs.enabled and (before is None or estimate < before - 1e-6):
            self.obs.emit(
                "clock_offset",
                worker=worker_id,
                offset_s=round(estimate, 6),
                samples=self.clock.samples(worker_id),
            )

    def _on_telemetry(self, message: Dict) -> None:
        """Merge one batched TELEMETRY frame into the run's trace sink.

        Each shipped event keeps the worker's own stamp (``w_mono``) and
        gains the skew-corrected master-clock reading (``m_mono``) plus the
        virtual time ``t`` derived from it — the field every analysis tool
        orders by.  Events are written straight to the sink (not through
        :meth:`Instrumentation.emit`) so the worker's bound context
        survives instead of being overwritten by the master's.
        """
        worker_id = int(message["worker_id"])
        self.monitor.beat(worker_id, time.monotonic())
        self._observe_clock(worker_id, message.get("mono"))
        # Account buffer overflow before the tracing gate: drop counts
        # must survive into the run_end header even on untraced runs.
        for event in message.get("events", ()):
            if (
                isinstance(event, dict)
                and event.get("event") == "telemetry_dropped"
            ):
                dropped = event.get("dropped")
                if isinstance(dropped, int) and dropped > 0:
                    self.telemetry_dropped[worker_id] = (
                        self.telemetry_dropped.get(worker_id, 0) + dropped
                    )
                    self.obs.metrics.counter(
                        "cluster_telemetry_dropped"
                    ).inc(dropped)
        if not self.obs.enabled:
            return
        spu = self.config.seconds_per_unit
        events = message.get("events", ())
        merged = 0
        for event in events:
            if not isinstance(event, dict):
                continue
            out = dict(event)
            out.setdefault("component", "worker")
            out.setdefault("worker", worker_id)
            w_mono = out.get("w_mono")
            if isinstance(w_mono, (int, float)):
                corrected = self.clock.correct(worker_id, float(w_mono))
                if corrected is not None:
                    out["m_mono"] = round(corrected, 6)
                    if self._t0 is not None:
                        out["t"] = round((corrected - self._t0) / spu, 6)
            self.obs.sink.emit(out)
            merged += 1
        self.obs.metrics.counter("cluster_telemetry_events").inc(merged)
        self.obs.metrics.counter("cluster_telemetry_batches").inc()

    # ----- completions ------------------------------------------------------

    def _on_task_done(self, message: Dict) -> None:
        worker_id = int(message["worker_id"])
        task_id = int(message["task_id"])
        now_v = self.vnow()
        self.monitor.beat(worker_id, time.monotonic())
        state = self.workers.get(worker_id)
        if state is not None:
            state.outstanding.pop(task_id, None)
            state.tasks_done += 1
        record = self.records.get(task_id)
        if record is None or record.status != DISPATCHED or (
            record.worker != worker_id
        ):
            # Stale completion: the task was surrendered and rescheduled
            # while this report was in flight.  First terminal state wins.
            if self.obs.enabled:
                self.obs.metrics.counter("cluster_stale_completions").inc()
            return
        record.status = COMPLETED
        record.finished_at = now_v
        record.actual_cost = float(message["actual_cost"])
        if record.guaranteed and not record.met_deadline:
            self.guaranteed_violations += 1
            self.obs.logger.warning(
                "guaranteed task missed its deadline",
                task=task_id,
                finished=round(now_v, 2),
                deadline=record.task.deadline,
            )
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_tasks_completed").inc()
            self.obs.emit(
                "task",
                transition="finished",
                task_id=task_id,
                t=now_v,
                processor=worker_id,
                met_deadline=record.met_deadline,
                deadline=record.task.deadline,
                actual_cost=record.actual_cost,
            )

    # ----- failures ---------------------------------------------------------

    def _worker_lost(self, worker_id: int, reason: str) -> None:
        state = self.workers.get(worker_id)
        if state is None or not state.alive:
            return
        state.alive = False
        self.monitor.forget(worker_id)
        self._conn_to_worker.pop(state.conn_id, None)
        self.hub.close_connection(state.conn_id)
        surrendered = list(state.outstanding.values())
        state.outstanding.clear()
        requeue: List[Task] = []
        for dispatched in surrendered:
            record = self.records.get(dispatched.task_id)
            if record is None or record.status != DISPATCHED:
                continue
            # The guarantee dies with the worker; the task re-enters the
            # batch and must re-earn feasibility on the survivors.
            record.status = PENDING
            record.guaranteed = False
            record.worker = None
            record.dispatched_at = None
            record.planned_cost = None
            record.reschedules += 1
            requeue.append(record.task)
        self.driver.worker_lost()
        self.driver.surrender(requeue)
        self.obs.logger.warning(
            "worker lost",
            worker=worker_id,
            reason=reason,
            surrendered=len(requeue),
        )
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_workers_lost").inc()
            self.obs.metrics.counter("cluster_reschedules").inc(len(requeue))
            now_v = self.vnow()
            self.obs.emit(
                "worker_lost",
                worker=worker_id,
                reason=reason,
                t=now_v,
                surrendered=len(requeue),
            )
            for task in requeue:
                self.obs.emit(
                    "task",
                    transition="surrendered",
                    task_id=task.task_id,
                    t=now_v,
                    processor=worker_id,
                    deadline=task.deadline,
                )

    # ----- PhaseHooks: the driver's view of the live cluster ----------------

    def _alive_workers(self) -> List[int]:
        return sorted(
            worker_id
            for worker_id, state in self.workers.items()
            if state.alive
        )

    def loads(self, now: float) -> List[float]:
        """Live ``Load_k``: outstanding worst-case work per alive worker.

        Also pins this phase's alive-index space and seeds the cumulative
        queue picture :meth:`deliver_entry` extends dispatch by dispatch.
        An empty return (every worker dead) makes the driver skip the
        phase; leftovers expire as the clock advances.
        """
        alive = self._alive_workers()
        self._phase_alive = alive
        loads = [
            self.workers[worker_id].outstanding_units() for worker_id in alive
        ]
        self._phase_cumulative = list(loads)
        return loads

    def transform_batch(self, tasks: List[Task], now: float) -> List[Task]:
        return remap_tasks(tasks, self._phase_alive)

    def on_task_expired(self, task: Task, now: float) -> None:
        record = self.records[task.task_id]
        record.status = EXPIRED
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_tasks_expired").inc()
            self.obs.emit(
                "task",
                transition="expired",
                task_id=task.task_id,
                t=now,
                deadline=task.deadline,
                arrival=task.arrival_time,
            )

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        """Re-validate one entry at dispatch time and send it.

        The cumulative loads picture starts as the phase's initial
        per-worker outstanding work and accumulates this phase's own
        dispatches, so later entries on the same worker see the queue the
        earlier ones created.  A declined entry returns to the driver's
        pending set and re-enters the batch next phase.
        """
        config = self.config
        margin = config.guarantee_margin_units
        worker_id = self._phase_alive[entry.processor]
        state = self.workers[worker_id]
        if not state.alive:
            return False  # died mid-phase
        record = self.records[entry.task.task_id]
        now_v = self.vnow()
        finish_bound = (
            now_v + self._phase_cumulative[entry.processor] + entry.total_cost
        )
        if finish_bound + margin > entry.task.deadline + EPSILON:
            # The wall clock outran the phase's feasibility bound (or
            # the margin eats the slack); not guaranteed, try again
            # next phase or expire.
            if self.obs.enabled:
                self.obs.metrics.counter("cluster_dispatch_rejected").inc()
                self.obs.emit(
                    "task",
                    transition="dispatch_rejected",
                    task_id=entry.task.task_id,
                    t=now_v,
                    processor=worker_id,
                    deadline=entry.task.deadline,
                    finish_bound=round(finish_bound + margin, 6),
                )
            return False
        sent = self.hub.send(
            state.conn_id,
            protocol.assign(
                task_id=entry.task.task_id,
                worker_id=worker_id,
                total_cost=entry.total_cost,
                communication_cost=entry.communication_cost,
                deadline=entry.task.deadline,
                template_id=self._template_id(entry.task.task_id),
            ),
        )
        if not sent:
            self._worker_lost(worker_id, reason="send failed")
            return False
        record.status = DISPATCHED
        record.worker = worker_id
        record.guaranteed = True
        record.dispatched_at = now_v
        record.planned_cost = entry.total_cost
        state.outstanding[entry.task.task_id] = _Dispatched(
            task_id=entry.task.task_id,
            planned_cost=entry.total_cost,
            deadline=entry.task.deadline,
        )
        self._phase_cumulative[entry.processor] += entry.total_cost
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_tasks_dispatched").inc()
            self.obs.emit(
                "task",
                transition="dispatched",
                task_id=entry.task.task_id,
                t=now_v,
                processor=worker_id,
                phase=phase_index,
                arrival=entry.task.arrival_time,
                deadline=entry.task.deadline,
                planned_cost=entry.total_cost,
            )
        return True

    # ----- scheduling -------------------------------------------------------

    def _schedule_ready_work(self) -> None:
        """Run one scheduling phase if there is anything to place."""
        now_v = self.vnow()
        opened = self.driver.open_phase(now_v)
        if opened is None:
            return
        with self.obs.span(
            "cluster_phase", phase=opened.index
        ) as span:
            trace = self.driver.deliver_phase(opened, now_v)
            if span is not None and self.obs.enabled:
                span.set(
                    t=round(now_v, 3),
                    batch=trace.batch_size,
                    quantum=trace.quantum,
                    scheduled=trace.scheduled,
                    dispatched=trace.delivered,
                )
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_phases").inc()

    # ----- termination ------------------------------------------------------

    def _finished(self) -> bool:
        if self.driver.has_backlog():
            return False
        return all(
            not state.outstanding for state in self.workers.values()
        )

    def _build_report(self, emit: bool = True) -> RunReport:
        """Aggregate this master's records; ``emit=False`` suppresses the
        ``run_end`` event (the sharded coordinator emits one merged one)."""
        records = self.records.values()
        completed = [r for r in records if r.status == COMPLETED]
        hits = [r for r in completed if r.met_deadline]
        expired = [r for r in records if r.status == EXPIRED]
        makespan = max(
            (r.finished_at for r in completed if r.finished_at is not None),
            default=self.vnow(),
        )
        wall = (
            time.monotonic() - self._start_wall
            if self._start_wall is not None
            else 0.0
        )
        if emit and self.obs.enabled:
            self.obs.emit(
                "run_end",
                workers=self.config.num_workers,
                tasks=len(self.records),
                deadline_hits=len(hits),
                phases=len(self.driver.phases),
                makespan=float(makespan),
                telemetry_dropped=sum(self.telemetry_dropped.values()),
            )
        return RunReport(
            backend="cluster",
            scheduler_name=self.scheduler.name,
            num_workers=self.expected_workers,
            seed=self.config.experiment.base_seed,
            total_tasks=len(self.records),
            guaranteed=self.driver.guaranteed_count,
            completed=len(completed),
            deadline_hits=len(hits),
            completed_late=len(completed) - len(hits),
            expired=len(expired),
            failed=0,  # fail-stop workers surrender; tasks never die in flight
            guaranteed_violations=self.guaranteed_violations,
            reschedules=self.driver.reschedules,
            workers_lost=self.driver.workers_lost,
            makespan=float(makespan),
            wall_seconds=wall,
            phases=self.driver.phases,
            extras={"port": self.port},
        )
