"""The on-line scheduling runtime: ``k`` hosts + workers under a virtual clock.

This is the simulator counterpart of the paper's deployment on the Intel
Paragon: a dedicated host processor runs scheduling phases back to back
while the ``m`` working processors concurrently execute previously delivered
schedules.  The cycle per phase ``j`` (paper Section 4):

1. form ``Batch(j)`` from unscheduled leftovers plus tasks arrived during
   phase ``j-1``; evict tasks whose deadlines are already hopeless;
2. allocate ``Q_s(j)`` via the scheduler's quantum policy;
3. search for a feasible (partial) schedule ``S_j`` under that quantum;
4. at ``t_e = t_s + sigma_j`` deliver ``S_j`` to the ready queues.

The loop itself lives in the backend-neutral
:class:`~repro.runtime.driver.PhaseDriver`.  A :class:`DomainHost` is one
such host — a driver, its scheduler and the workers it owns — and
:class:`DistributedRuntime` runs every host of a
:class:`~repro.core.domains.DomainAssignment` on one
:class:`~repro.simulator.engine.SimulationEngine` (the engine allows one
handler per event type, so the runtime is the sole subscriber and routes
to hosts).  The paper's machine is the one-domain assignment: its host's
slots *are* the global worker ids (its
:class:`~repro.core.affinity.Projection` is the identity) and it has no
peers, so no affinity is ever renamed and the migration path below is
never reached.

With ``k > 1`` domains each host searches only its own workers and its own
share of the arrivals, and the hosts' phases overlap freely in virtual
time.  After a host delivers a phase, every task its search left unplaced
is offered (once) to the least-loaded peer; the peer accepts iff the quick
guarantee check (:func:`~repro.sharding.migration.can_guarantee`) passes,
at which point the task is withdrawn from the origin driver and admitted to
the peer — guarantee accounting never double-counts because an unplaced
task holds no guarantee and earns one only where it is finally delivered.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.affinity import CommunicationModel, Projection
from ..core.domains import DomainAssignment, partition_workers
from ..core.scheduler import Scheduler
from ..core.task import Task, TaskSet
from ..observability import Instrumentation, get_instrumentation
from ..runtime.driver import (
    OpenPhase,
    PhaseDriver,
    PhaseHooks,
    interleave_phases,
)
from ..runtime.ledger import COMPLETED, FAILED, TaskLedger, TaskRecord
from ..runtime.report import RunReport
from ..sharding.migration import MigrationStats, offer_leftovers
from .engine import SimulationEngine, SimulationError
from .events import (
    HostWake,
    ProcessorFailed,
    ScheduleDelivered,
    TaskArrived,
    TaskFinished,
)
from .execution import ExecutionTimeModel, resolve_actual_cost
from .processor import WorkerProcessor

#: Safety cap on dispatched events plus stepped phases; generously above
#: any legitimate run.  One run of the paper-scale burst (1000 tasks,
#: m = 2..8, seed 1998) dispatches 1.1-1.3 k events and steps 3.9-31.5 k
#: phases; run by run, every phase an event, it dispatched 5.1-32.7 k.
MAX_EVENTS = 5_000_000


@dataclass
class QuietRun:
    """A host's last phase, which placed nothing, and until when it repeats.

    Kept only for a phase that ends before the engine's next event, so its
    own delivery is the next event the host sees.
    """

    #: The phase every repeat copies.
    opened: OpenPhase
    #: The latest start whose phase repeats it (``PhaseDriver.quiet_until``).
    until: float


class DomainHost(PhaseHooks):
    """One scheduling host: its driver, its scheduler, and its workers.

    The host answers the driver's questions (loads, delivery) in virtual
    time, posting placements to the run's shared ledger.  It holds the
    pieces of the run it uses, never the runtime, and its driver calls
    back through a weak proxy: a finished run is a tree, freed by
    reference count when the caller drops it, not whenever the cycle
    collector next runs (its ledger is most of what a sweep allocates).
    """

    def __init__(
        self,
        assignment: DomainAssignment,
        domain_id: int,
        workers: Tuple[int, ...],
        scheduler: Scheduler,
        ledger: TaskLedger,
        execution_model: Optional[ExecutionTimeModel] = None,
    ) -> None:
        self.domain_id = domain_id
        #: This host's slots (``view.workers[slot]`` is a global worker
        #: id), fixed for the run; the scheduler sees slots.
        self.view = Projection(workers, assignment.num_workers)
        self.scheduler = scheduler
        self.ledger = ledger
        self.execution_model = execution_model
        self.driver = PhaseDriver(scheduler, weakref.proxy(self), ledger)
        self.worker_objs = [WorkerProcessor(w) for w in workers]
        #: Domain label on this host's trace events (none on a lone host).
        self.tag = {"domain": domain_id} if assignment.sharded else {}
        self.busy = False
        self.wake_pending = False
        self.open_phase: Optional[OpenPhase] = None
        #: Whether phases may be stepped: not while the scheduler reports
        #: each phase it runs (instrumentation on), which a step does not.
        self.may_step = True
        self.quiet: Optional[QuietRun] = None

    # ----- PhaseHooks: the driver's view of this host's workers ------------

    def loads(self, now: float) -> List[float]:
        return [worker.load(now) for worker in self.worker_objs]

    def transform_batch(self, tasks: List[Task], now: float) -> List[Task]:
        return self.view.project(tasks)

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        worker = self.worker_objs[entry.processor]
        if worker.failed:
            # The processor died between phase start and delivery; the
            # assignment returns to the pending set and is rescheduled on
            # the survivors through the normal feasibility path.
            return False
        actual = resolve_actual_cost(self.execution_model, entry)
        worker.deliver(entry, now, actual_cost=actual)
        self.ledger.place(  # global id in the record
            entry, phase_index, now, worker.processor_id, actual, **self.tag
        )
        return True


class DistributedRuntime:
    """Drives one workload over the scheduling hosts of one assignment."""

    def __init__(
        self,
        schedulers: Sequence[Scheduler],
        assignment: DomainAssignment,
        workload: Iterable[Task],
        remote_cost: float,
        comm: Optional[CommunicationModel] = None,
        validate_phases: bool = False,
        execution_model: Optional[ExecutionTimeModel] = None,
        failures: Optional[List] = None,
        instrumentation: Optional[Instrumentation] = None,
        seed: int = 0,
        router: Optional[Callable[[Task], int]] = None,
    ) -> None:
        if len(schedulers) != assignment.num_domains:
            raise ValueError(
                f"{assignment.num_domains} domains need as many schedulers, "
                f"got {len(schedulers)}"
            )
        self.assignment = assignment
        self.workload = list(workload)
        #: The constant ``C`` migration offers are checked against.
        self.remote_cost = remote_cost
        #: What ``validate_phases`` re-checks against (default: each
        #: host's own scheduler model).
        self.comm = comm
        self.validate_phases = validate_phases
        self.execution_model = execution_model
        self.seed = seed
        self.router = router or assignment.route
        # (time, processor) fail-stop crash injections.
        self.failures = list(failures or [])
        for at, processor in self.failures:
            if not 0 <= processor < assignment.num_workers:
                raise ValueError(f"failure targets unknown P{processor}")
            if not 0 <= at < math.inf:
                raise ValueError(
                    f"failure time must be finite and non-negative, got {at}"
                )

        # Resolved at construction; bound with the scheduler name so every
        # event this run emits says which scheduler produced it.
        base_obs = instrumentation or get_instrumentation()
        self.obs = (
            base_obs.bind(scheduler=schedulers[0].name)
            if base_obs.enabled
            else base_obs
        )
        self.engine = SimulationEngine()
        #: Phases recorded as repeats, not run (see _step_quiet_run).
        self.phases_stepped = 0
        #: The run's one ledger, shared by every host.
        self.ledger = TaskLedger(self.obs)
        self.stats = MigrationStats()
        self.domains: List[DomainHost] = [
            DomainHost(
                assignment, d, assignment.workers_of(d), scheduler,
                self.ledger, execution_model,
            )
            for d, scheduler in enumerate(schedulers)
        ]
        #: Global worker id -> (owning host, worker object).
        self._worker_index: Dict[int, Tuple[DomainHost, WorkerProcessor]] = {
            worker.processor_id: (host, worker)
            for host in self.domains
            for worker in host.worker_objs
        }
        #: Task ids that may not migrate (offered once, or migrated in).
        self._migration_barred: Set[int] = set()

        self.engine.subscribe(TaskArrived, self._on_task_arrived)
        self.engine.subscribe(HostWake, self._on_host_wake)
        self.engine.subscribe(ScheduleDelivered, self._on_schedule_delivered)
        self.engine.subscribe(TaskFinished, self._on_task_finished)
        self.engine.subscribe(ProcessorFailed, self._on_processor_failed)

    # ----- event handlers --------------------------------------------------

    def _on_task_arrived(self, now: float, event: TaskArrived) -> None:
        task = event.task
        target = self.router(task)
        if not 0 <= target < len(self.domains):
            raise SimulationError(
                f"router sent task {task.task_id} to unknown domain {target}"
            )
        host = self.domains[target]
        host.driver.admit([task])
        # Deadline + worst-case cost ride on the arrival so a trace is
        # self-contained for the offline schedulability oracle (expired
        # tasks never reach a transition that stamps their cost).
        self.ledger.note(
            "arrived",
            task.task_id,
            now,
            deadline=task.deadline,
            cost=task.processing_time,
            **host.tag,
        )
        self._request_wake(host, now)

    def _request_wake(self, host: DomainHost, now: float) -> None:
        if host.busy or host.wake_pending:
            return
        host.wake_pending = True
        self.engine.schedule_at(now, HostWake(host.domain_id))

    def _on_host_wake(self, now: float, event: HostWake) -> None:
        host = self.domains[event.domain]
        host.wake_pending = False
        if not host.busy:
            self._start_phase(host, now)

    def _start_phase(self, host: DomainHost, now: float) -> None:
        """Open the host's phase ``j`` if there is anything to schedule."""
        engine = self.engine
        quiet, host.quiet = host.quiet, None
        if quiet is not None:
            self._step_quiet_run(host, quiet, now)
            return
        opened = host.driver.open_phase(now)
        if opened is None:
            # Nothing schedulable; the host sleeps until the next arrival.
            return
        if self.validate_phases:
            opened.result.validate(self.comm or host.scheduler.comm)
        host.busy = True
        host.open_phase = opened
        end = opened.result.phase_end
        if host.may_step and not opened.result.schedule:
            next_event = engine.next_time()
            if end < next_event:
                until = host.driver.quiet_until(opened, next_event)
                if until >= end:
                    host.quiet = QuietRun(opened, until)
        engine.schedule_at(end, ScheduleDelivered(host.domain_id))

    def _step_quiet_run(
        self, host: DomainHost, quiet: QuietRun, now: float
    ) -> None:
        """Step the phases from ``now`` on that repeat ``quiet``'s phase.

        A repeat places nothing, and until the next event nothing else
        happens, so the phase after a repeat starts at its end over the same
        batch.  Each repeat that ends before the next event is therefore
        recorded on the spot, without an event.  The repeat that does not is
        opened in flight and delivered by the engine after that event, as it
        would have been.  The first phase past the run's horizon is opened by a
        wake at its start, where the engine's clock would have read its
        start.  The phase at ``now`` repeats (``quiet.until`` is at least
        its start).  Stepped phases count against ``MAX_EVENTS`` with the
        events.
        """
        driver = host.driver
        trace = driver.phases[-1]
        next_event = self.engine.next_time()
        allowance = self._allowance()
        start, stepped = now, 0
        while start <= quiet.until:
            if start + trace.time_used >= next_event:
                opened = driver.reopen_phase(quiet.opened, start)
                host.busy = True
                host.open_phase = opened
                self.engine.schedule_at(
                    opened.result.phase_end, ScheduleDelivered(host.domain_id)
                )
                break
            if stepped >= allowance:
                raise self._runaway()
            trace = driver.repeat_phase(trace)
            stepped += 1
            start = trace.end
        else:
            host.wake_pending = True
            self.engine.schedule_at(start, HostWake(host.domain_id))
        self.phases_stepped += stepped

    def _allowance(self) -> int:
        """How many more events and stepped phases the run may take."""
        return MAX_EVENTS - self.engine.events_dispatched - self.phases_stepped

    def _runaway(self) -> SimulationError:
        """The error of a run past ``MAX_EVENTS`` (see :meth:`_allowance`)."""
        return SimulationError(
            f"exceeded max_events={MAX_EVENTS} (events and stepped phases); "
            "likely a runaway simulation (check quantum/expiry configuration)"
        )

    def _on_schedule_delivered(self, now: float, event: ScheduleDelivered) -> None:
        host = self.domains[event.domain]
        opened = host.open_phase
        host.open_phase = None
        host.busy = False
        host.driver.deliver_phase(opened, now)
        # Kick any worker that was idle and just received work.
        for entry in opened.result.schedule:
            worker = host.worker_objs[entry.processor]
            if not worker.failed:
                self._maybe_start_worker(worker, now)
        if len(self.domains) > 1:
            self._offer_leftovers(host, now)
        self._start_phase(host, now)

    def _maybe_start_worker(self, worker: WorkerProcessor, now: float) -> None:
        running = worker.start_next(now)
        if running is not None:
            self.ledger.start(
                running.task.task_id, running.started_at, worker.processor_id
            )
            self.engine.schedule_at(
                running.finishes_at,
                TaskFinished(
                    processor=worker.processor_id,
                    task_id=running.task.task_id,
                ),
            )

    def _on_processor_failed(self, now: float, event: ProcessorFailed) -> None:
        host, worker = self._worker_index[event.processor]
        if worker.failed:
            return
        lost, survivors = worker.fail(now)
        host.driver.worker_lost()
        if lost is not None:
            # The guarantee died with the processor; the task is terminal
            # and cannot be requeued (non-preemptive, partially executed).
            self.ledger.settle(lost.task.task_id, FAILED, now)
        # Undelivered work returns to the host for rescheduling on the
        # surviving processors, through the normal feasibility path.
        host.driver.surrender(
            [work.task.task_id for work in survivors], now, event.processor
        )
        self._request_wake(host, now)

    def _on_task_finished(self, now: float, event: TaskFinished) -> None:
        _, worker = self._worker_index[event.processor]
        if worker.failed:
            # Stale completion of a task that was lost in the crash.
            return
        finished = worker.complete_current(now)
        if finished.task.task_id != event.task_id:
            raise SimulationError(
                f"P{event.processor} finished task {finished.task.task_id}, "
                f"expected {event.task_id}"
            )
        self.ledger.settle(event.task_id, COMPLETED, now)
        self._maybe_start_worker(worker, now)

    # ----- migration (only ever reached with peers) ------------------------

    def _offer_leftovers(self, origin: DomainHost, now: float) -> None:
        """Run the one offer round; move what the target accepted.

        The hosts share one ledger, so a hand-off is the origin's
        ``withdraw`` and the target's ``admit``: no record moves.
        """
        target, migrated = offer_leftovers(
            origin,
            [host for host in self.domains if host is not origin],
            now,
            self.remote_cost,
            self.stats,
            self._migration_barred,
            self.ledger,
        )
        if migrated:
            origin.quiet = None  # its batch changed
            origin.driver.withdraw([task.task_id for task in migrated])
            target.driver.admit(migrated)
            self._request_wake(target, now)

    # ----- public API ------------------------------------------------------

    def run(self) -> RunReport:
        """Execute the full workload; returns the aggregated report."""
        # Lend the run's instrumentation to the schedulers so phase spans
        # and per-scheduler counters flow even when the caller passed it
        # only to simulate(); an explicitly instrumented scheduler keeps
        # its own.
        lent: List[Scheduler] = []
        for host in self.domains:
            host.scheduler.reset()
            if self.obs.enabled and host.scheduler.instrumentation is None:
                host.scheduler.instrumentation = self.obs
                lent.append(host.scheduler)
            host.may_step = not (
                host.scheduler.instrumentation or get_instrumentation()
            ).enabled
        try:
            return self._run()
        finally:
            for scheduler in lent:
                scheduler.instrumentation = None
            # The handlers are this runtime's bound methods: dropping them
            # cuts the last cycle of a finished run (see DomainHost).
            self.engine.unsubscribe_all()

    def _run(self) -> RunReport:
        start_wall = time.monotonic()
        obs = self.obs
        assignment = self.assignment
        sharded = assignment.sharded
        if obs.enabled:
            # A lone host's trace carries no domain fields (cf. DomainHost.tag).
            obs.emit(
                "run_start",
                workers=assignment.num_workers,
                tasks=len(self.workload),
                **assignment.header_fields(partition_policy=assignment.policy),
            )
        ledger = self.ledger
        for task in self.workload:
            ledger.open(TaskRecord(task))
            self.engine.schedule_at(task.arrival_time, TaskArrived(task))
        for at, processor in self.failures:
            self.engine.schedule_at(at, ProcessorFailed(processor))
        engine = self.engine
        while engine.step():
            if self._allowance() < 0:
                raise self._runaway()
        drivers = [host.driver for host in self.domains]
        if any(driver.has_backlog() for driver in drivers):
            raise SimulationError(
                "simulation drained with tasks still unscheduled; "
                "this indicates a stalled host loop"
            )
        report = RunReport.from_ledgers(
            [ledger],
            backend="sharded" if sharded else "sim",
            scheduler_name=self.domains[0].scheduler.name,
            num_workers=assignment.num_workers,
            seed=self.seed,
            workers_lost=sum(d.workers_lost for d in drivers),
            makespan=self.engine.now,
            wall_seconds=time.monotonic() - start_wall,
            phases=interleave_phases(driver.phases for driver in drivers),
            migration=self.stats.as_section() if sharded else {},
            extras={
                "trace": ledger,
                "events_dispatched": self.engine.events_dispatched,
                "assignment": assignment.as_dict(),
            },
        )
        if obs.enabled:
            obs.emit(
                "run_end",
                workers=assignment.num_workers,
                tasks=report.total_tasks,
                deadline_hits=report.deadline_hits,
                phases=len(report.phases),
                makespan=self.engine.now,
                events_dispatched=self.engine.events_dispatched,
                **assignment.header_fields(migrations=self.stats.accepted),
            )
            obs.metrics.counter("runtime_runs").inc()
            obs.metrics.counter(
                "runtime_events_dispatched"
            ).inc(self.engine.events_dispatched)
            obs.metrics.histogram("runtime_makespan").observe(self.engine.now)
        return report


def simulate(
    scheduler: Scheduler,
    workload: Iterable[Task] | TaskSet,
    num_workers: int,
    comm=None,
    validate_phases: bool = False,
    execution_model: Optional[ExecutionTimeModel] = None,
    failures: Optional[List] = None,
    instrumentation: Optional[Instrumentation] = None,
    seed: int = 0,
) -> RunReport:
    """Convenience wrapper: the paper's machine, one host over ``m`` workers.

    ``comm`` defaults to the scheduler's own communication model when it has
    one (all built-in schedulers do), keeping the scheduler's view of costs
    and the machine's actual costs consistent.  ``seed`` is recorded in the
    report for provenance only — the workload is whatever the caller built.
    """
    if comm is None:
        comm = getattr(scheduler, "comm", None)
        if comm is None:
            raise ValueError(
                "scheduler exposes no communication model; pass comm explicitly"
            )
    runtime = DistributedRuntime(
        schedulers=[scheduler],
        assignment=partition_workers(num_workers, 1),
        workload=workload,
        remote_cost=getattr(comm, "remote_cost", 0.0),
        comm=comm,
        validate_phases=validate_phases,
        execution_model=execution_model,
        failures=failures,
        instrumentation=instrumentation,
        seed=seed,
    )
    return runtime.run()
