"""Work, not seconds: a phase costs what changed, counted without a clock.

The claim that a phase no longer walks its batch is gated here on counts a
seed fixes.  A spy task type counts every read of a member's ``deadline`` or
``processing_time`` and every ``slack`` / ``is_expired`` call — each is one
visit to one batch member.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.core import Batch, Task, UniformCommunicationModel, min_slack
from repro.core.phase import PhaseResult
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.scheduler import Scheduler
from repro.core.search import SearchStats
from repro.observability import NULL_INSTRUMENTATION
from repro.runtime import PhaseDriver, PhaseHooks, TaskLedger, TaskRecord

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
