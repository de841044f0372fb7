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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.affinity import Projection, UniformCommunicationModel
from ..core.feasibility import EPSILON
from ..core.task import Task
from ..experiments.runner import build_scheduler
from ..observability import Instrumentation, get_instrumentation
from ..observability.clockskew import ClockOffsetEstimator
from ..runtime.driver import PhaseDriver, PhaseHooks
from ..runtime.ledger import (
    COMPLETED,
    DELIVERED,
    LIVE_PLACED,
    PENDING,
    TaskLedger,
    TaskRecord,
)
from ..runtime.report import RunReport
from ..sharding.migration import can_guarantee
from . import protocol
from .config import (
    POLL_INTERVAL,
    STARTUP_TIMEOUT,
    ClusterConfig,
    build_cluster_workload,
)
from .failure import HeartbeatMonitor
from .network import DISCONNECT, MESSAGE, MessageHub, NetworkEvent


class ClusterError(RuntimeError):
    """The live run could not start or complete."""


class ClusterStartupError(ClusterError):
    """Not every worker registered within the startup timeout."""


class ClusterTimeoutError(ClusterError):
    """The run exceeded its hard wall-clock budget and was aborted."""


@dataclass
class _WorkerState:
    """Registration and queue state of one worker process."""

    worker_id: int
    conn_id: int
    alive: bool = True
    tasks_done: int = 0
    #: Task id -> planned cost of each assignment still on the queue.
    outstanding: Dict[int, float] = field(default_factory=dict)

    def outstanding_units(self) -> float:
        """Worst-case remaining work — the live ``Load_k`` upper bound."""
        return sum(self.outstanding.values())


@dataclass(frozen=True)
class Domain:
    """What one master schedules: a slice of the fleet and its routed tasks.

    Domain-ness is data handed to the one master class by whoever builds
    the masters (the launcher partitions the fleet and routes the workload
    once; ``k`` may be 1), not a subclass of it.  The paper's machine —
    one scheduling processor over all ``m`` workers — is :meth:`whole`.
    """

    #: Placement source for WELCOME residencies (shared by every domain).
    database: object
    #: The closed workload routed here (empty for a streaming service).
    tasks: Sequence[Task]
    #: Global ids of the workers that register with this master.
    workers: Tuple[int, ...]
    domain_id: int = 0
    #: Whether peer domains exist: a lone domain's trace carries no
    #: domain fields and it has no one to migrate to (the simulator's rule).
    has_peers: bool = False

    @classmethod
    def whole(cls, experiment) -> "Domain":
        """The one-domain case: the whole fleet, the whole workload."""
        database, tasks, _transactions = build_cluster_workload(
            experiment, experiment.base_seed
        )
        return cls(
            database=database,
            tasks=tasks,
            workers=tuple(range(experiment.num_processors)),
        )


class ClusterMaster(PhaseHooks):
    """Accepts workers, runs the scheduling loop, collects completions."""

    #: The one dispatch point: message type -> handler method, each called
    #: as ``handler(conn_id, message)``; nothing pre-filters events around
    #: it.  :meth:`handle` adds a frame type to one master's table.
    HANDLERS = {
        protocol.HELLO: "_register_worker",
        protocol.HEARTBEAT: "_on_heartbeat",
        protocol.TASK_DONE: "_on_task_done",
        protocol.TELEMETRY: "_on_telemetry",
        protocol.MIGRATE_OFFER: "_on_migrate_offer",
    }

    def __init__(
        self,
        config: ClusterConfig,
        domain: Domain,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        experiment = config.experiment
        self.domain = domain
        base_obs = instrumentation or get_instrumentation()
        if base_obs.enabled:
            tag = {"domain": domain.domain_id} if domain.has_peers else {}
            base_obs = base_obs.bind(component="master", **tag)
        self.obs = base_obs
        self.database = domain.database
        self.comm = UniformCommunicationModel(experiment.remote_cost)
        self.scheduler = build_scheduler(
            config.scheduler_name, experiment, self.comm
        )
        # Binding happens here so the launcher can read the real port
        # before spawning workers against an ephemeral (port=0) config.
        self.hub = MessageHub(
            config.host, config.port, instrumentation=self.obs
        )
        #: This master's task records and settled-task counts (times in
        #: virtual units); the counts outlive the records, which a service
        #: prunes on RESULT and a migration hands to the accepting peer.
        self.ledger = TaskLedger(self.obs, placed_as=LIVE_PLACED)
        self.records = self.ledger.records
        self.driver = PhaseDriver(self.scheduler, self, self.ledger)
        self._handlers: Dict[str, Callable[[int, Dict], None]] = {
            kind: getattr(self, name) for kind, name in self.HANDLERS.items()
        }
        # Every task of the closed workload is known up front: one record
        # each, and the full arrival stream staged on the driver.
        for task in domain.tasks:
            self.ledger.open(TaskRecord(task))
        self.driver.stage_arrivals(domain.tasks)
        #: Task ids that may not migrate (offered once, or migrated in).
        self._migration_barred: set = set()
        self.workers: Dict[int, _WorkerState] = {}
        self._conn_to_worker: Dict[int, int] = {}
        self.monitor = HeartbeatMonitor(config.heartbeat_interval)
        # Every worker frame carries the sender's monotonic clock; the
        # min-filter estimator learns each worker's offset so shipped
        # telemetry can merge onto the master's timeline.
        self.clock = ClockOffsetEstimator()
        # Telemetry events each worker's bounded buffer had to drop
        # (worker_id -> count), folded into the run_end trace header.
        self.telemetry_dropped: Dict[int, int] = {}
        #: The alive workers in slot order, as of the last phase: replaced
        #: by loads() only after a join or a loss.
        self.view = Projection((), self.database.placement.num_processors)
        # Per-phase scratch set by loads() and extended by deliver_entry():
        # the accumulating queue picture, slot by slot.
        self._phase_cumulative: List[float] = []
        self._t0: Optional[float] = None
        self._start_wall: Optional[float] = None

    # ----- clocks ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The TCP port this master's hub is bound to."""
        return self.hub.port

    @property
    def expected_workers(self) -> int:
        """How many workers must register before the run starts."""
        return len(self.domain.workers)

    def vnow(self) -> float:
        """Virtual time: wall seconds since readiness, in cost units."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() - self._t0) / self.config.seconds_per_unit

    # ----- lifecycle -------------------------------------------------------
    #
    # await_workers -> start_clock -> step (until True) -> shutdown ->
    # report.  Whoever owns the run walks its masters through exactly that
    # sequence from one thread: the launcher for k >= 1 domains, the
    # service for its one.

    def start_clock(self, t0: Optional[float] = None) -> None:
        """Start virtual time (at ``t0``, a monotonic reading; default now).

        The virtual clock starts when the cluster is ready: worker spawn
        time is deployment overhead, not scheduling overhead, and the
        bursty workload "arrives" at readiness.  Masters of one sharded
        run are handed one shared origin, so loads, deadlines and
        migration decisions in every domain speak the same clock.
        """
        self._t0 = time.monotonic() if t0 is None else t0
        if self.obs.enabled:
            self._emit_arrivals()

    def _emit_arrivals(self) -> None:
        """One "arrived" per task, mirroring the simulator's trace.

        Deadline + worst-case cost make the trace self-contained for the
        offline schedulability oracle even for tasks that expire before
        any other transition.
        """
        for task_id in sorted(self.records):
            task = self.records[task_id].task
            self.ledger.note(
                "arrived",
                task_id,
                task.arrival_time,
                deadline=task.deadline,
                cost=task.processing_time,
            )

    def shutdown(self) -> None:
        """Broadcast SHUTDOWN, drain the last telemetry, close the hub.

        Idempotent; failure-path cleanup uses :meth:`close`, which cannot
        raise.
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
        """Close the hub without the SHUTDOWN handshake (idempotent)."""
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
                    self._handle_frame(event.conn_id, event.message)
            if not traced:
                break

    def await_workers(self) -> None:
        """Block until every worker said HELLO (or the startup timeout)."""
        self._start_wall = time.monotonic()
        deadline = self._start_wall + STARTUP_TIMEOUT
        while len(self.workers) < self.expected_workers:
            if time.monotonic() > deadline:
                raise ClusterStartupError(
                    f"only {len(self.workers)}/{self.expected_workers} "
                    f"workers registered within {STARTUP_TIMEOUT}s"
                )
            for event in self.hub.poll(POLL_INTERVAL):
                # Routed through the full dispatcher: a fast worker's first
                # TELEMETRY batch (its ``worker_start`` marker) can land
                # while the master still waits on slower registrations.
                self._dispatch(event)
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

    def step(self) -> bool:
        """One iteration of the scheduling loop; True when the run is done.

        The whole loop body: the launcher round-robins several domain
        masters through it in one thread, the service steps its one.
        """
        config = self.config
        for event in self.hub.poll(POLL_INTERVAL):
            self._dispatch(event)
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

    def handle(self, kind: str, handler: Callable[[int, Dict], None]) -> None:
        """Route frames of type ``kind`` to ``handler(conn_id, message)``."""
        self._handlers[kind] = handler

    def _dispatch(self, event: NetworkEvent) -> None:
        # A CONNECT carries nothing: a peer's identity is its first frame.
        if event.kind == DISCONNECT:
            self._on_disconnect(event.conn_id)
        elif event.kind == MESSAGE:
            self._handle_frame(event.conn_id, event.message)

    def _handle_frame(self, conn_id: int, message: Dict) -> None:
        """Route one frame through :attr:`HANDLERS`.

        ``unpack`` vouches only for ``v`` and ``type``; the fields are the
        peer's word.  A handler that trips over them (``KeyError``,
        ``TypeError``, ``ValueError``) costs that peer its connection —
        never the loop, and with it every other client's guarantees.
        """
        kind = message.get("type")
        handler = self._handlers.get(kind)
        if handler is None:
            self.obs.logger.warning("unexpected message at master", type=kind)
            return
        try:
            handler(conn_id, message)
        except (KeyError, TypeError, ValueError) as exc:
            self.obs.logger.warning(
                "malformed frame; dropping the connection",
                type=kind,
                conn=conn_id,
                error=repr(exc),
            )
            self.obs.metrics.counter("cluster_protocol_errors").inc()
            self.hub.close_connection(conn_id)
            self._on_disconnect(conn_id)

    def _on_disconnect(self, conn_id: int) -> None:
        worker_id = self._conn_to_worker.pop(conn_id, None)
        if worker_id is not None:
            self._worker_lost(worker_id, reason="connection lost")

    def _on_heartbeat(self, conn_id: int, message: Dict) -> None:
        worker_id = int(message["worker_id"])
        self.monitor.beat(worker_id, time.monotonic())
        self._observe_clock(worker_id, message.get("mono"))
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_heartbeats").inc()

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

    def _on_telemetry(self, conn_id: int, message: Dict) -> None:
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

    def _on_task_done(self, conn_id: int, message: Dict) -> None:
        # Fields first: a malformed TASK_DONE must fail before any
        # bookkeeping moves, or its task would settle nowhere.
        worker_id = int(message["worker_id"])
        task_id = int(message["task_id"])
        actual_cost = float(message["actual_cost"])
        now_v = self.vnow()
        self.monitor.beat(worker_id, time.monotonic())
        state = self.workers.get(worker_id)
        if state is not None:
            state.outstanding.pop(task_id, None)
            state.tasks_done += 1
        record = self.records.get(task_id)
        if record is None or record.status != DELIVERED or (
            record.processor != worker_id
        ):
            # Stale completion: the task was surrendered and rescheduled
            # while this report was in flight.  First terminal state wins.
            if self.obs.enabled:
                self.obs.metrics.counter("cluster_stale_completions").inc()
            return
        self.ledger.settle(task_id, COMPLETED, now_v, actual_cost=actual_cost)
        if record.guaranteed and not record.met_deadline:
            self.obs.logger.warning(
                "guaranteed task missed its deadline",
                task=task_id,
                finished=round(now_v, 2),
                deadline=record.task.deadline,
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
        # The guarantee dies with the worker; its queue re-enters the
        # batch and must re-earn feasibility on the survivors.
        requeue = [
            task_id
            for task_id in state.outstanding
            if task_id in self.records
            and self.records[task_id].status == DELIVERED
        ]
        state.outstanding.clear()
        self.obs.logger.warning(
            "worker lost",
            worker=worker_id,
            reason=reason,
            surrendered=len(requeue),
        )
        now_v = self.vnow()
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_workers_lost").inc()
            self.obs.metrics.counter("cluster_reschedules").inc(len(requeue))
            self.obs.emit(
                "worker_lost",
                worker=worker_id,
                reason=reason,
                t=now_v,
                surrendered=len(requeue),
            )
        self.driver.worker_lost()
        self.driver.surrender(requeue, now_v, worker_id)

    # ----- PhaseHooks: the driver's view of the live cluster ----------------

    def alive_workers(self) -> List[int]:
        """Ids of the registered workers not declared dead, ascending."""
        return sorted(
            worker_id
            for worker_id, state in self.workers.items()
            if state.alive
        )

    def loads(self, now: float) -> List[float]:
        """Live ``Load_k``: outstanding worst-case work per alive worker.

        Also pins this phase's slots — a new :attr:`view` only when the
        alive set changed — and seeds the cumulative queue picture
        :meth:`deliver_entry` extends dispatch by dispatch.  An empty
        return (every worker dead) makes the driver skip the phase;
        leftovers expire as the clock advances.
        """
        alive = tuple(self.alive_workers())
        if alive != self.view.workers:
            self.view = Projection(alive, self.view.universe)
        loads = [
            self.workers[worker_id].outstanding_units() for worker_id in alive
        ]
        self._phase_cumulative = list(loads)
        return loads

    def transform_batch(self, tasks: List[Task], now: float) -> List[Task]:
        """Project affinities onto this phase's alive-worker slots."""
        return self.view.project(tasks)

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
        worker_id = self.view.workers[entry.processor]
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
            self.ledger.note(
                "dispatch_rejected",
                entry.task.task_id,
                now_v,
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
                template_id=record.template_id,
            ),
        )
        if not sent:
            self._worker_lost(worker_id, reason="send failed")
            return False
        self.ledger.place(entry, phase_index, now_v, worker_id)
        state.outstanding[entry.task.task_id] = entry.total_cost
        self._phase_cumulative[entry.processor] += entry.total_cost
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

    def report(self) -> RunReport:
        """This master's outcome, from its ledger's counts.

        Emits nothing: the ``run_end`` header belongs to whoever owns the
        run (the launcher for its merged report, or the service).  Nothing
        is ``failed`` in flight here: fail-stop workers surrender their
        queues, so a batch run's tasks all complete or expire.
        """
        makespan = self.ledger.last_finish or self.vnow()
        wall = (
            time.monotonic() - self._start_wall
            if self._start_wall is not None
            else 0.0
        )
        return RunReport.from_ledgers(
            [self.ledger],
            backend="cluster",
            scheduler_name=self.scheduler.name,
            num_workers=self.expected_workers,
            seed=self.config.experiment.base_seed,
            workers_lost=self.driver.workers_lost,
            makespan=float(makespan),
            wall_seconds=wall,
            phases=self.driver.phases,
            extras={"port": self.port},
        )

    # ----- migration: the target side ---------------------------------------

    def _on_migrate_offer(self, conn_id: int, message: Dict) -> None:
        """Decide one offer: admit-and-accept, or decline.

        The quick check is the same arithmetic the simulator's peer
        domains use (:func:`~repro.sharding.migration.can_guarantee`), so
        sim and cluster accept the same offers under the same loads.  An
        accepted task is barred from re-migration (one-hop) and re-earns
        its guarantee through the normal dispatch-time re-check.  A lone
        domain has no peers to hear from: an offer there is a stray frame.
        """
        if not self.domain.has_peers:
            self.obs.logger.warning(
                "unexpected message at master", type=protocol.MIGRATE_OFFER
            )
            return
        offer_id = int(message["offer_id"])
        task_id = int(message["task_id"])
        task = Task(
            task_id=task_id,
            processing_time=float(message["processing"]),
            arrival_time=float(message["arrival"]),
            deadline=float(message["deadline"]),
            affinity=frozenset(int(p) for p in message["affinity"]),
        )
        alive = self.alive_workers()
        loads = [self.workers[w].outstanding_units() for w in alive]
        acceptable = (
            task_id not in self.records
            and bool(alive)
            and can_guarantee(
                task,
                self.vnow(),
                loads,
                alive,
                self.config.experiment.remote_cost,
            )
        )
        domain_id = self.domain.domain_id
        if acceptable:
            self.ledger.open(TaskRecord(task))
            self._migration_barred.add(task_id)
            self.driver.admit([task])
            self.hub.send(
                conn_id, protocol.migrate_accept(offer_id, task_id, domain_id)
            )
            if self.obs.enabled:
                self.obs.metrics.counter("cluster_migrations_in").inc()
        else:
            self.hub.send(
                conn_id, protocol.migrate_decline(offer_id, task_id, domain_id)
            )

    # ----- migration: the origin side ---------------------------------------

    def migration_candidates(self) -> List[Task]:
        """Unbarred batch leftovers — what the local search failed to place.

        Returned with their *original* (global-id) affinities from the
        task records, never the remapped local-slot view the search saw.
        """
        now = self.vnow()
        candidates: List[Task] = []
        for stale in self.driver.batch.tasks():
            record = self.records.get(stale.task_id)
            if record is None or record.status != PENDING:
                continue
            if stale.task_id in self._migration_barred:
                continue
            task = record.task
            if task.is_expired(now):
                continue
            candidates.append(task)
        return sorted(candidates, key=lambda t: t.task_id)

    def bar_migration(self, task_id: int) -> None:
        """One-hop discipline: never offer this task again."""
        self._migration_barred.add(task_id)

    def release_migrated(self, task_id: int) -> bool:
        """Hand ownership to the accepting peer: drop batch entry + record."""
        removed = self.driver.withdraw([task_id])
        record = self.ledger.release(task_id)
        if not removed or record is None:
            self.obs.logger.warning(
                "migrated task was not waiting here", task=task_id
            )
            return False
        if self.obs.enabled:
            self.obs.metrics.counter("cluster_migrations_out").inc()
        return True

    def mean_load(self) -> float:
        """Mean outstanding work per alive worker (inf with none alive)."""
        alive = self.alive_workers()
        if not alive:
            return float("inf")
        total = sum(self.workers[w].outstanding_units() for w in alive)
        return total / len(alive)


def emit_run_end(
    obs: Instrumentation,
    report: RunReport,
    masters: Sequence[ClusterMaster],
    **sharding: object,
) -> None:
    """The one ``run_end`` trace header of a run, from its final report.

    ``masters`` are the run's masters (their telemetry-drop counts fold
    into the header); ``sharding`` carries the fields only a multi-domain
    run has.
    """
    if not obs.enabled:
        return
    obs.emit(
        "run_end",
        workers=report.num_workers,
        tasks=report.total_tasks,
        deadline_hits=report.deadline_hits,
        phases=len(report.phases),
        makespan=report.makespan,
        telemetry_dropped=sum(
            sum(master.telemetry_dropped.values()) for master in masters
        ),
        **sharding,
    )
