"""The long-lived scheduler service: a front on one ``ClusterMaster``.

A :class:`ServiceFront` turns an ordinary master — the whole fleet, no
closed workload — into a server.  The master keeps everything that makes
a live run honest — wall-clock phases, dispatch-time guarantee re-checks,
heartbeat failure detection, telemetry merging — and the front replaces
the closed workload with a stream: clients ``SUBMIT`` transactions over
the wire, the admission layer (:mod:`~repro.service.admission`) accepts or
sheds each one, and every accepted submission is answered with exactly
one terminal ``RESULT``.  It attaches through two generic seams: one
frame-handler registration (:meth:`ClusterMaster.handle`) and the
ledger's one transition observer.

**Templates, not payloads.**  The deterministically rebuilt workload tasks
become a *template universe* shared by master and workers through
``(experiment, seed)``.  A ``SUBMIT`` names a template; the front mints a
fresh task id, stamps the arrival at the master-observed virtual now, and
derives the absolute deadline from the submission's relative deadline (or
the template's own laxity).  ``ASSIGN`` carries the template id so workers
execute the right resident transaction for a minted task.

**Books follow the ledger.**  The front is the master ledger's observer:
each of the four record transitions (open, place, requeue, settle) moves
the task between the admission views, so a decision reads what is already
queued.  A settle also sends the record's RESULT to the client that asked
(the front's own map holds only requests in flight) and prunes the record
from :attr:`ClusterMaster.records`; the ledger's counts carry the history.
That bounds memory by work-in-flight, not by service lifetime — the
property that lets the process run indefinitely.

**Termination.**  The run ends by :meth:`ServiceFront.request_stop`
(SIGTERM), by the ``max_service_seconds`` duration cap, or — for harness
runs — by going idle after serving at least one client.  All three paths
drain: admission flips to rejecting (reason ``draining``), in-flight work
gets ``drain_grace_seconds`` to finish, and whatever remains is
*surrendered* — guarantee revoked, RESULT ``surrendered`` sent — so no
client is ever left waiting on a frame that will not come.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import protocol
from ..cluster.master import ClusterMaster, Domain
from ..core.task import Task
from ..observability import Instrumentation
from ..runtime.ledger import PENDING, SHED, SURRENDERED, TaskRecord
from ..runtime.report import RunReport
from .admission import AdmissionState, build_policy
from .config import ServiceConfig


class ServiceFront:
    """Accepts submission streams for one master and answers every one."""

    def __init__(
        self,
        service: ServiceConfig,
        master: ClusterMaster,
        templates: Sequence[Task],
    ) -> None:
        self.service = service
        self.master = master
        self.obs = master.obs
        self.templates: Dict[int, Task] = {t.task_id: t for t in templates}
        self.policy = build_policy(service.admission_policy)
        laxities = [t.deadline - t.arrival_time for t in templates]
        mean_laxity = sum(laxities) / len(laxities)
        #: What is queued, kept at every record's status transitions.
        self.admission = AdmissionState(
            now=0.0,
            workers=0,
            capacity_units=service.max_backlog_units
            or master.expected_workers * mean_laxity,
        )
        self._next_task_id = max(self.templates) + 1
        #: Task id -> (client connection, request id), while in flight.
        self._requests: Dict[int, Tuple[int, int]] = {}
        self._had_client = False
        # SUBMITs landing before the fleet is ready queue here and replay
        # at virtual time zero — nothing is lost to the startup barrier.
        self._pre_start: List[Tuple[int, int, int, float]] = []
        self._started: Optional[float] = None
        self._backpressure = False
        self._stop_requested = False
        self._stop_reason = ""
        self._draining = False
        self._drain_reason = ""
        self._drain_deadline_wall = 0.0
        master.handle(protocol.SUBMIT, self._on_submit)
        master.ledger.observer = self

    @classmethod
    def on_whole_fleet(
        cls,
        service: ServiceConfig,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "ServiceFront":
        """A front on a new master over the whole fleet.

        The rebuilt workload is the template universe, not a closed batch:
        the master starts with nothing staged and the front mints a record
        per submission.
        """
        fleet = Domain.whole(service.cluster.experiment)
        master = ClusterMaster(
            service.cluster,
            replace(fleet, tasks=()),
            instrumentation=instrumentation,
        )
        return cls(service, master, fleet.tasks)

    # ----- lifecycle: what the serving loop asks -----------------------------

    def start(self) -> None:
        """Open the doors once the master's clock runs: admit the SUBMITs
        that raced the startup barrier, in arrival order."""
        self._started = time.monotonic()
        queued, self._pre_start = self._pre_start, []
        for submission in queued:
            self._decide(*submission)

    def request_stop(self, reason: str = "stop-requested") -> None:
        """Ask the run to drain and exit (signal-handler safe)."""
        self._stop_reason = reason
        self._stop_requested = True

    @property
    def draining(self) -> bool:
        """Whether admission is closed and the run is winding down."""
        return self._draining

    def drain_if_due(self, now_wall: float) -> None:
        """Before a step: begin the drain once a stop reason applies."""
        if not self._draining:
            reason = self._stop_due(now_wall)
            if reason:
                self._begin_drain(reason, now_wall)

    def finished(self, master_done: bool) -> bool:
        """After a step: a service never runs out of workload, so it is
        done once a drain emptied the master's queues (``master_done``)
        or its grace ran out."""
        return self._draining and (
            master_done or time.monotonic() >= self._drain_deadline_wall
        )

    def _clients(self) -> int:
        """Open connections that are not registered workers."""
        master = self.master
        return master.hub.open_connections - len(master.alive_workers())

    def _stop_due(self, now_wall: float) -> str:
        """The drain reason that applies right now ('' = keep serving)."""
        if self._stop_requested:
            return self._stop_reason or "stop-requested"
        limit = self.service.max_service_seconds
        if limit > 0 and now_wall - self._started >= limit:
            return "duration"
        if (
            self.service.stop_when_idle
            and self._had_client
            and not self.master.records
            and not self.master.driver.has_backlog()
            and self._clients() <= 0
        ):
            return "idle"
        return ""

    def _begin_drain(self, reason: str, now_wall: float) -> None:
        self._draining = True
        self._drain_reason = reason
        self._drain_deadline_wall = now_wall + self.service.drain_grace_seconds
        in_flight = len(self.master.records)
        self.obs.logger.info(
            "service draining", reason=reason, in_flight=in_flight
        )
        if self.obs.enabled:
            self.obs.emit(
                "drain_start",
                reason=reason,
                t=self.master.vnow(),
                in_flight=in_flight,
            )

    def surrender(self) -> None:
        """Terminal sweep before SHUTDOWN: every record still open becomes
        ``surrendered``.

        Pending work is withdrawn from the driver; dispatched work has its
        guarantee revoked by the settlement (surrendered, not violated —
        the paper's discipline survives shutdown).  Every client gets its
        RESULT, and a few extra poll ticks flush the outboxes.
        """
        master = self.master
        now_v = master.vnow()
        leftover = list(master.records.values())
        master.driver.withdraw(
            [r.task_id for r in leftover if r.status == PENDING]
        )
        for record in leftover:
            master.ledger.settle(record.task_id, SURRENDERED, now_v)
        if self.obs.enabled:
            self.obs.emit(
                "drain_end",
                reason=self._drain_reason,
                t=now_v,
                surrendered=len(leftover),
            )
        for _ in range(3):
            master.hub.poll(0.02)

    # ----- admission ---------------------------------------------------------

    def _on_submit(self, conn_id: int, message: Dict) -> None:
        # Fields first: a malformed SUBMIT must fail before it is counted.
        request_id = int(message["request_id"])
        template_id = int(message["template_id"])
        relative = float(message.get("relative_deadline") or 0.0)
        if not math.isfinite(relative):
            raise ValueError(f"relative_deadline must be finite: {relative}")
        if self._started is None:
            self._pre_start.append((conn_id, request_id, template_id, relative))
            return
        self._decide(conn_id, request_id, template_id, relative)

    def _decide(
        self, conn_id: int, request_id: int, template_id: int, relative: float
    ) -> None:
        """Accept, shed-and-accept or reject one well-formed SUBMIT."""
        self._had_client = True
        if self._draining:
            self._reject(conn_id, request_id, "draining")
            return
        template = self.templates.get(template_id)
        if template is None:
            self._reject(conn_id, request_id, "unknown-template")
            return
        master = self.master
        now_v = master.vnow()
        if relative <= 0.0:
            relative = template.deadline - template.arrival_time
        task_id = self._next_task_id
        task = replace(
            template,
            task_id=task_id,
            arrival_time=now_v,
            deadline=now_v + relative,
        )
        cost = template.processing_time
        state = self.admission.at(now_v, len(master.alive_workers()))
        decision = self.policy.decide(task, cost, state)
        for shed_id in decision.shed:
            self._shed_task(shed_id, now_v)
        if not decision.accept:
            self._reject(conn_id, request_id, decision.reason)
            self._note_backpressure(True)
            return
        self._next_task_id += 1
        self._requests[task_id] = (conn_id, request_id)
        master.ledger.open(TaskRecord(task, template_id=template.task_id))
        master.driver.admit([task])
        master.hub.send(
            conn_id, protocol.accept(request_id, task_id, task.deadline)
        )
        master.ledger.note(
            "admitted",
            task_id,
            now_v,
            arrival=task.arrival_time,
            deadline=task.deadline,
            template=template.task_id,
            policy=self.policy.name,
        )
        if decision.shed:
            self._note_backpressure(True)
        elif state.backlog_units() < 0.8 * state.capacity_units:
            # The backlog after admission: it holds the newcomer already.
            self._note_backpressure(False)

    def _reject(self, conn_id: int, request_id: int, reason: str) -> None:
        self.master.ledger.reject()
        self.master.hub.send(
            conn_id, protocol.reject(request_id, reason, self.policy.name)
        )
        if self.obs.enabled:
            self.obs.metrics.counter("service_rejected").inc()
            self.obs.emit(
                "submission_rejected",
                request=request_id,
                t=self.master.vnow(),
                reason=reason,
                policy=self.policy.name,
            )

    def _shed_task(self, task_id: int, now_v: float) -> None:
        """Withdraw one admitted-but-undispatched task (policy decision)."""
        master = self.master
        record = master.records.get(task_id)
        if record is None or record.status != PENDING:
            return
        master.driver.withdraw([task_id])
        master.ledger.settle(task_id, SHED, now_v, policy=self.policy.name)

    def _note_backpressure(self, engaged: bool) -> None:
        """Record open <-> shedding transitions of the admission layer."""
        if engaged == self._backpressure:
            return
        self._backpressure = engaged
        state = "shedding" if engaged else "open"
        self.obs.logger.info("backpressure", state=state)
        if self.obs.enabled:
            self.obs.metrics.counter("service_backpressure_flips").inc()
            self.obs.emit(
                "backpressure", state=state, t=self.master.vnow()
            )

    # ----- the ledger's observer: the books follow every transition ---------

    def open(self, record: TaskRecord) -> None:
        """An accepted task waits, costed at its processing time."""
        self.admission.admit(record.task)

    def place(self, record: TaskRecord) -> None:
        """Dispatched: outstanding work, costed at the entry's total."""
        self.admission.place(record.task_id, record.planned_cost)

    def requeue(self, record: TaskRecord) -> None:
        """Its worker was lost: the task waits again."""
        self.admission.requeue(record.task)

    def settle(self, record: TaskRecord) -> None:
        """Send the one terminal RESULT and prune the record: it leaves
        admission's queue, the request map and the master's records.

        Pruning is what bounds memory over an unbounded run; the ledger's
        counts keep the history the report needs.  A dead client
        connection just drops the frame — the record still settles.
        """
        task_id = record.task_id
        self.admission.settle(task_id)
        # Only a record this front opened has a client to answer.
        request = self._requests.pop(task_id, None)
        if request is not None:
            conn_id, request_id = request
            finished = record.finished_at
            self.master.hub.send(
                conn_id,
                protocol.result(
                    request_id,
                    task_id,
                    record.status,
                    record.met_deadline,
                    finished if finished is not None else 0.0,
                ),
            )
        self.master.records.pop(task_id, None)

    # ----- report ------------------------------------------------------------

    def stamp(self, report: RunReport) -> RunReport:
        """The master's report as a service run's, judged against
        *offered* load.

        Every submission counts in ``total_tasks``, so shedding is paid
        for in ``hit_ratio``; rejected, shed and surrendered work is
        ``failed`` (:meth:`RunReport.from_ledgers`).  The submission-side
        counts ride in ``extras``.
        """
        ledger = self.master.ledger
        report.backend = "service"
        report.extras.update(
            policy=self.policy.name,
            submitted=ledger.opened + ledger.rejected,
            accepted=ledger.opened,
            rejected=ledger.rejected,
            shed=ledger.settled[SHED],
            surrendered=ledger.settled[SURRENDERED],
            open=ledger.still_open,
            capacity_units=self.admission.capacity_units,
            distinct_workers=len(self.master.workers),
            drain_reason=self._drain_reason,
        )
        return report
