"""The long-lived scheduler service: ClusterMaster under open-loop load.

:class:`ServiceMaster` keeps everything that makes the batch master honest
— wall-clock phases, dispatch-time guarantee re-checks, heartbeat failure
detection, telemetry merging — and replaces the closed workload with a
stream: clients ``SUBMIT`` transactions over the wire, the admission layer
(:mod:`~repro.service.admission`) accepts or sheds each one, and every
accepted submission is answered with exactly one terminal ``RESULT``.

**Templates, not payloads.**  The deterministically rebuilt workload tasks
become a *template universe* shared by master and workers through
``(experiment, seed)``.  A ``SUBMIT`` names a template; the master mints a
fresh task id, stamps the arrival at the master-observed virtual now, and
derives the absolute deadline from the submission's relative deadline (or
the template's own laxity).  ``ASSIGN`` carries the template id so workers
execute the right resident transaction for a minted task.

**Result discipline.**  Every terminal transition on the master's ledger
sends the record's RESULT (the ledger's ``on_settled`` hook) and the
record leaves :attr:`ClusterMaster.records` that moment; the ledger's
counts carry the history.  That bounds the master's memory by
work-in-flight, not by service lifetime — the property that lets the
process run indefinitely.

**Termination.**  The run ends by :meth:`request_stop` (SIGTERM), by the
``max_service_seconds`` duration cap, or — for harness runs — by going
idle after serving at least one client.  All three paths drain: admission
flips to rejecting (reason ``draining``), in-flight work gets
``drain_grace_seconds`` to finish, and whatever remains is *surrendered* —
guarantee revoked, RESULT ``surrendered`` sent — so no client is ever left
waiting on a frame that will not come.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..cluster import protocol
from ..cluster.master import ClusterMaster, Domain
from ..core.task import Task
from ..observability import Instrumentation
from ..runtime.ledger import PENDING, SHED, SURRENDERED, TaskRecord
from ..runtime.report import RunReport
from .admission import AdmissionState, build_policy
from .config import ServiceConfig


@dataclass
class ServiceTaskRecord(TaskRecord):
    """One accepted submission's lifecycle, routed back to its client."""

    client_conn: int = -1
    request_id: int = -1


class ServiceMaster(ClusterMaster):
    """Accepts submission streams, schedules them, answers every one."""

    backend = "service"

    HANDLERS = {**ClusterMaster.HANDLERS, protocol.SUBMIT: "_on_submit"}

    def __init__(
        self,
        service: ServiceConfig,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        # The rebuilt workload is the template universe, not a closed
        # batch: the master starts with nothing staged and mints a record
        # per submission.
        fleet = Domain.whole(service.cluster.experiment)
        super().__init__(
            service.cluster,
            replace(fleet, tasks=()),
            instrumentation=instrumentation,
        )
        self.service = service
        self.ledger.on_settled = self._send_result
        self.templates: Dict[int, Task] = {t.task_id: t for t in fleet.tasks}
        self.policy = build_policy(service.admission_policy)
        templates = self.templates.values()
        costs = [t.processing_time for t in templates]
        laxities = [t.deadline - t.arrival_time for t in templates]
        self.mean_template_cost = sum(costs) / len(costs)
        mean_laxity = sum(laxities) / len(laxities)
        #: What is queued, kept at every record's status transitions.
        self.admission = AdmissionState(
            now=0.0,
            workers=0,
            capacity_units=service.max_backlog_units
            or self.expected_workers * mean_laxity,
        )
        self._next_task_id = max(self.templates) + 1
        # Client connections currently open (conn_id -> submissions seen).
        self._clients: Dict[int, int] = {}
        self._had_client = False
        # SUBMITs landing before the fleet is ready queue here and replay
        # at virtual time zero — nothing is lost to the startup barrier.
        self._pre_start: List[Tuple[int, Dict]] = []
        self._backpressure = False
        self._stop_requested = False
        self._stop_reason = ""
        self._draining = False
        self._drain_reason = ""
        self._drain_deadline_wall = 0.0

    # ----- stop / drain ------------------------------------------------------

    def request_stop(self, reason: str = "stop-requested") -> None:
        """Ask the run to drain and exit (signal-handler safe)."""
        self._stop_reason = reason
        self._stop_requested = True

    @property
    def draining(self) -> bool:
        """Whether admission is closed and the run is winding down."""
        return self._draining

    def _stop_due(self, now_wall: float) -> str:
        """The drain reason that applies right now ('' = keep serving)."""
        if self._stop_requested:
            return self._stop_reason or "stop-requested"
        limit = self.service.max_service_seconds
        if limit > 0 and self._t0 is not None and (
            now_wall - self._t0 >= limit
        ):
            return "duration"
        if (
            self.service.stop_when_idle
            and self._had_client
            and not self._clients
            and not self.records
            and not self.driver.has_backlog()
        ):
            return "idle"
        return ""

    def _begin_drain(self, reason: str, now_wall: float) -> None:
        self._draining = True
        self._drain_reason = reason
        self._drain_deadline_wall = now_wall + self.service.drain_grace_seconds
        self.obs.logger.info(
            "service draining",
            reason=reason,
            in_flight=len(self.records),
        )
        if self.obs.enabled:
            self.obs.emit(
                "drain_start",
                reason=reason,
                t=self.vnow(),
                in_flight=len(self.records),
            )

    def _surrender_unfinished(self) -> None:
        """Terminal sweep: every record still open becomes ``surrendered``.

        Pending work is withdrawn from the driver; dispatched work has its
        guarantee revoked by the settlement (surrendered, not violated —
        the paper's discipline survives shutdown).  Every client gets its
        RESULT, and a few extra poll ticks flush the outboxes before
        SHUTDOWN.
        """
        now_v = self.vnow()
        leftover = list(self.records.values())
        self.driver.withdraw(
            [r.task_id for r in leftover if r.status == PENDING]
        )
        for record in leftover:
            self.ledger.settle(record.task_id, SURRENDERED, now_v)
        if self.obs.enabled:
            self.obs.emit(
                "drain_end",
                reason=self._drain_reason,
                t=now_v,
                surrendered=len(leftover),
            )
        for _ in range(3):
            self.hub.poll(0.02)

    # ----- lifecycle plug-ins ------------------------------------------------

    def start_clock(self, t0: Optional[float] = None) -> None:
        """Start virtual time, then admit the SUBMITs that raced the
        startup barrier, in arrival order."""
        super().start_clock(t0)
        queued, self._pre_start = self._pre_start, []
        for conn_id, message in queued:
            self._handle_frame(conn_id, message)

    def _before_phase(self, now_wall: float) -> None:
        if not self._draining:
            reason = self._stop_due(now_wall)
            if reason:
                self._begin_drain(reason, now_wall)

    def _finished(self) -> bool:
        """A service never runs out of workload: it is done once a drain
        emptied the queues, or its grace ran out."""
        return self._draining and (
            super()._finished()
            or time.monotonic() >= self._drain_deadline_wall
        )

    def shutdown(self) -> None:
        """Answer every client a drain left waiting, then stop the fleet."""
        if self._draining and not self.hub.closed:
            self._surrender_unfinished()
        super().shutdown()

    # ----- connections: clients next to workers ------------------------------

    def _on_connect(self, conn_id: int) -> None:
        # Tentatively a client; a worker's HELLO reclassifies it.
        self._clients.setdefault(conn_id, 0)

    def _register_worker(self, conn_id: int, message: Dict) -> None:
        self._clients.pop(conn_id, None)
        super()._register_worker(conn_id, message)

    def _on_disconnect(self, conn_id: int) -> None:
        if self._clients.pop(conn_id, None) is not None:
            self.obs.logger.info("client disconnected", conn=conn_id)
            return
        super()._on_disconnect(conn_id)

    # ----- admission ---------------------------------------------------------

    def _on_submit(self, conn_id: int, message: Dict) -> None:
        if self._t0 is None:
            self._pre_start.append((conn_id, message))
            return
        # Fields first: a malformed SUBMIT must fail before it is counted.
        request_id = int(message["request_id"])
        template_id = int(message["template_id"])
        relative = float(message.get("relative_deadline") or 0.0)
        if not math.isfinite(relative):
            raise ValueError(f"relative_deadline must be finite: {relative}")
        self._clients[conn_id] = self._clients.get(conn_id, 0) + 1
        self._had_client = True
        if self._draining:
            self._reject(conn_id, request_id, "draining")
            return
        template = self.templates.get(template_id)
        if template is None:
            self._reject(conn_id, request_id, "unknown-template")
            return
        now_v = self.vnow()
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
        state = self.admission.at(now_v, len(self._alive_workers()))
        decision = self.policy.decide(task, cost, state)
        for shed_id in decision.shed:
            self._shed_task(shed_id, now_v)
        if not decision.accept:
            self._reject(conn_id, request_id, decision.reason)
            self._note_backpressure(True)
            return
        self._next_task_id += 1
        self.ledger.open(
            ServiceTaskRecord(
                task=task,
                client_conn=conn_id,
                request_id=request_id,
                template_id=template.task_id,
            )
        )
        self.admission.admit(task)
        self.driver.admit([task])
        self.hub.send(
            conn_id, protocol.accept(request_id, task_id, task.deadline)
        )
        self.ledger.note(
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

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        """Dispatch as every live master does; a placed task becomes
        outstanding work, costed at the entry's planned total."""
        placed = super().deliver_entry(entry, phase_index, now)
        if placed:
            self.admission.place(entry.task.task_id, entry.total_cost)
        return placed

    def _after_requeue(self, task_ids: List[int]) -> None:
        for task_id in task_ids:
            self.admission.requeue(self.records[task_id].task)

    def _reject(self, conn_id: int, request_id: int, reason: str) -> None:
        self.ledger.reject()
        self.hub.send(
            conn_id, protocol.reject(request_id, reason, self.policy.name)
        )
        if self.obs.enabled:
            self.obs.metrics.counter("service_rejected").inc()
            self.obs.emit(
                "submission_rejected",
                request=request_id,
                t=self.vnow(),
                reason=reason,
                policy=self.policy.name,
            )

    def _shed_task(self, task_id: int, now_v: float) -> None:
        """Withdraw one admitted-but-undispatched task (policy decision)."""
        record = self.records.get(task_id)
        if record is None or record.status != PENDING:
            return
        self.driver.withdraw([task_id])
        self.ledger.settle(task_id, SHED, now_v, policy=self.policy.name)

    def _note_backpressure(self, engaged: bool) -> None:
        """Record open <-> shedding transitions of the admission layer."""
        if engaged == self._backpressure:
            return
        self._backpressure = engaged
        state = "shedding" if engaged else "open"
        self.obs.logger.info("backpressure", state=state)
        if self.obs.enabled:
            self.obs.metrics.counter("service_backpressure_flips").inc()
            self.obs.emit("backpressure", state=state, t=self.vnow())

    # ----- results back to clients -------------------------------------------

    def _send_result(self, record: ServiceTaskRecord, now_v: float) -> None:
        """Send the one terminal RESULT for a just-settled ``record`` and
        prune it (the ledger's ``on_settled`` hook): it leaves admission's
        queue and the records.

        Pruning is what bounds master memory over an unbounded run; the
        ledger's counts keep the history the report needs.  A dead client
        connection just drops the frame — the record still settles.
        """
        finished = record.finished_at if record.finished_at is not None else 0.0
        self.hub.send(
            record.client_conn,
            protocol.result(
                record.request_id,
                record.task_id,
                record.status,
                record.met_deadline,
                finished,
            ),
        )
        self.admission.settle(record.task_id)
        self.records.pop(record.task_id, None)

    # ----- report ------------------------------------------------------------

    def report(self) -> RunReport:
        """The master's report, judged against *offered* load.

        Every submission counts in ``total_tasks``, so shedding is paid
        for in ``hit_ratio``; rejected, shed and surrendered work is
        ``failed`` (:meth:`RunReport.from_ledgers`).  The submission-side
        counts ride in ``extras``.
        """
        report = super().report()
        ledger = self.ledger
        report.extras.update(
            policy=self.policy.name,
            submitted=ledger.opened + ledger.rejected,
            accepted=ledger.opened,
            rejected=ledger.rejected,
            shed=ledger.settled[SHED],
            surrendered=ledger.settled[SURRENDERED],
            open=ledger.still_open,
            capacity_units=self.admission.capacity_units,
            distinct_workers=len(self.workers),
            drain_reason=self._drain_reason,
        )
        return report
