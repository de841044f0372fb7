"""Work, not seconds: a phase costs what changed, counted without a clock.

The claim that a phase no longer walks its batch is gated here on counts a
seed fixes.  A spy task type counts every read of a member's ``deadline`` or
``processing_time`` and every ``slack`` / ``is_expired`` call — each is one
visit to one batch member.  The same way, a phase whose root is dead is
gated on building no search (no ``successors`` call, no ``Vertex``, no
``PhaseContext``), and a worker's load on summing its ready queue only
after the queue changed.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.core import Batch, Task, UniformCommunicationModel, min_slack
from repro.core.phase import PhaseResult
from repro.core.representations import (
    AssignmentOrientedExpander,
    SequenceOrientedExpander,
)
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.scheduler import Scheduler, SearchScheduler
from repro.core.search import PhaseContext, SearchStats, Vertex
from repro.observability import NULL_INSTRUMENTATION
from repro.runtime import PhaseDriver, PhaseHooks, TaskLedger, TaskRecord
from repro.simulator import processor as processor_module
from repro.simulator.processor import QueuedWork, WorkerProcessor

MEMBERS = 200
PHASES = 50
VISITS = Counter()


class SpyTask(Task):
    """A task that counts being looked at."""

    def __getattribute__(self, name):
        if name in ("deadline", "processing_time", "slack", "is_expired"):
            VISITS[name] += 1
        return object.__getattribute__(self, name)


def spy_tasks(first_id: int, count: int, processing: float = 4.0):
    """``count`` tasks over five windows, none due before t = 396."""
    return [
        SpyTask(
            task_id=first_id + i,
            processing_time=processing + i % 5,
            arrival_time=0.0,
            deadline=100.0 * (processing + i % 5),
            affinity=frozenset({0}),
        )
        for i in range(count)
    ]


def test_nothing_due_costs_no_member_visits():
    batch = Batch(spy_tasks(0, MEMBERS))
    VISITS.clear()
    assert batch.drop_expired(now=5.0) == []
    assert min_slack(batch.edf_order(), now=5.0) == 391.0
    # No member is visited for its own sake: each question reads the latest
    # deadline once, to scale its guard band.
    assert VISITS == {"deadline": 2}
    # The same question asked of a plain list is the scan it always was.
    assert min_slack(batch.tasks(), now=5.0) == 391.0
    assert VISITS["slack"] == MEMBERS


class FirstTaskScheduler(Scheduler):
    """Places the head of the EDF order on processor 0 and reads no more."""

    name = "first-task"

    def fill_window(self, batch, loads, now, budget):
        task = batch[0]
        entry = ScheduleEntry(task, 0, 0.0, loads[0] + task.processing_time)
        return PhaseResult(
            schedule=Schedule([entry]),
            time_used=1.0,
            quantum=budget.quantum,
            phase_start=now,
            stats=SearchStats(),
            initial_offsets=tuple(loads),
        )


class AcceptingHooks(PhaseHooks):
    def __init__(self, ledger):
        self.ledger = ledger

    def loads(self, now):
        return [0.0, 0.0]

    def deliver_entry(self, entry, phase_index, now):
        self.ledger.place(entry, phase_index, now, entry.processor)
        return True


def test_fifty_phases_visit_what_changed_not_the_batch():
    ledger = TaskLedger(NULL_INSTRUMENTATION)
    scheduler = FirstTaskScheduler(UniformCommunicationModel(remote_cost=5.0))
    driver = PhaseDriver(scheduler, AcceptingHooks(ledger), ledger)

    def admit(tasks):
        for task in tasks:
            ledger.open(TaskRecord(task))
        driver.admit(tasks)

    admit(spy_tasks(0, MEMBERS))
    assert driver.run_phase(now=0.0).batch_size == MEMBERS
    VISITS.clear()
    changes = 0
    for phase in range(1, PHASES + 1):
        if phase % 10 == 0:  # a trickle of arrivals, one of them stillborn
            admit(spy_tasks(1000 + phase, 2) + spy_tasks(2000 + phase, 1, 0.001))
            changes += 3
        trace = driver.run_phase(now=float(phase))
        assert trace.scheduled == 1
        changes += 1
    assert driver.batch.total_expired == PHASES // 10
    assert len(driver.batch) == MEMBERS - 1 - PHASES + 2 * (PHASES // 10)
    # Each change is a bisect into two sorted orders of ~200 members plus a
    # constant; a phase that walked the batch even once would pay 200 here.
    per_change = 4 * math.ceil(math.log2(MEMBERS)) + 16
    visits = sum(VISITS.values())
    assert visits <= changes * per_change
    assert visits < PHASES * MEMBERS / 4
    assert not VISITS["slack"] and not VISITS["is_expired"]


QUEUED = 50
SUMMED = Counter()


class SpyWork(QueuedWork):
    """Queued work that counts each time its cost is read."""

    def __getattribute__(self, name):
        if name == "total_cost":
            SUMMED[name] += 1
        return object.__getattribute__(self, name)


class WorkerHooks(PhaseHooks):
    """Loads are real workers' ready queues; a dead root delivers nothing."""

    def __init__(self, workers):
        self.workers = workers

    def loads(self, now):
        return [worker.load(now) for worker in self.workers]

    def deliver_entry(self, entry, phase_index, now):
        raise AssertionError("a dead-root phase has nothing to deliver")


def loaded_workers(monkeypatch, count=2):
    """Workers whose queues keep every spy task past its deadline."""
    monkeypatch.setattr(processor_module, "QueuedWork", SpyWork)
    workers = [WorkerProcessor(k) for k in range(count)]
    for worker in workers:
        for i in range(QUEUED):
            task = Task(
                task_id=10_000 + 100 * worker.processor_id + i,
                processing_time=25.0,
                arrival_time=0.0,
                deadline=5_000.0,
            )
            worker.deliver(ScheduleEntry(task, worker.processor_id, 0.0, 0.0), 0.0)
    return workers


def dead_root_phases(expander, workers):
    """PHASES phases of a 200-member batch the loaded workers all refuse."""
    ledger = TaskLedger(NULL_INSTRUMENTATION)
    scheduler = SearchScheduler(
        UniformCommunicationModel(remote_cost=5.0),
        expander_factory=lambda phase_index: expander,
    )
    driver = PhaseDriver(scheduler, WorkerHooks(workers), ledger)
    tasks = spy_tasks(0, MEMBERS)
    for task in tasks:
        ledger.open(TaskRecord(task))
    driver.admit(tasks)
    return [driver.run_phase(now=float(phase)) for phase in range(PHASES)]


@pytest.mark.parametrize(
    "representation", [AssignmentOrientedExpander, SequenceOrientedExpander]
)
def test_dead_root_phases_build_no_search(representation, monkeypatch):
    built = Counter()
    for cls in (Vertex, PhaseContext):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            built[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting_init)

    class Spy(representation):
        def successors(self, vertex, ctx, budget, stats):
            built["successors"] += 1
            return super().successors(vertex, ctx, budget, stats)

    class Uncertified(Spy):
        def dead_root(self, tasks, offsets, bound, comm, budget):
            return None

    certified = dead_root_phases(Spy(), loaded_workers(monkeypatch))
    assert not built
    # The same phases searched: one root expansion each, the same charges.
    searched = dead_root_phases(Uncertified(), loaded_workers(monkeypatch))
    assert built == {"successors": PHASES, "PhaseContext": PHASES, "Vertex": PHASES}
    assert certified == searched
    assert all(
        trace.scheduled == 0 and trace.vertices_generated > 0 for trace in certified
    )


def test_phases_over_unchanged_queues_resum_no_queue(monkeypatch):
    workers = loaded_workers(monkeypatch)
    SUMMED.clear()
    dead_root_phases(AssignmentOrientedExpander(), workers)
    # Each queue is summed once, for the first phase; nothing changed since.
    assert SUMMED["total_cost"] == len(workers) * QUEUED
    workers[0].start_next(now=0.0)
    SUMMED.clear()
    loads = [worker.load(1.0) for worker in workers]
    assert SUMMED["total_cost"] == QUEUED - 1
    assert loads == [25.0 * (QUEUED - 1) + 24.0, 25.0 * QUEUED]
