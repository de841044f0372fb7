"""Conservation under any interleaving: PhaseDriver + TaskLedger.

A hypothesis state machine drives one driver and one ledger through every
transition a backend can post, in any order — admissions, clock jumps past
deadlines, phases with some deliveries declined, withdrawals (shed),
processor losses (requeue), drain-style revocations, completions and
in-flight failures — and checks the ledger's books after every step,
including that its observer heard each transition exactly when it was
booked.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import RTSADS, UniformCommunicationModel, make_task
from repro.observability import NULL_INSTRUMENTATION
from repro.runtime import (
    PhaseDriver,
    PhaseHooks,
    RunReport,
    TaskLedger,
    TaskRecord,
)
from repro.runtime.ledger import (
    COMPLETED,
    DELIVERED,
    FAILED,
    PENDING,
    SHED,
    SURRENDERED,
    TERMINAL,
)

PROCESSORS = 3


class CountingObserver:
    """Counts, per task, each transition the ledger reports."""

    def __init__(self) -> None:
        self.heard = {
            kind: Counter() for kind in ("open", "place", "requeue", "settle")
        }

    def open(self, record) -> None:
        self.heard["open"][record.task_id] += 1

    def place(self, record) -> None:
        assert record.status == DELIVERED
        self.heard["place"][record.task_id] += 1

    def requeue(self, record) -> None:
        assert record.status == PENDING
        self.heard["requeue"][record.task_id] += 1

    def settle(self, record) -> None:
        assert record.status in TERMINAL
        self.heard["settle"][record.task_id] += 1


class FakeHooks(PhaseHooks):
    """Flat loads; declines the entries the current rule asked it to."""

    def __init__(self, ledger: TaskLedger) -> None:
        self.ledger = ledger
        self.declined_residues: frozenset = frozenset()

    def loads(self, now: float) -> List[float]:
        return [0.0] * PROCESSORS

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        if entry.task.task_id % 3 in self.declined_residues:
            return False
        self.ledger.place(entry, phase_index, now, entry.processor)
        return True


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.observer = CountingObserver()
        self.ledger = TaskLedger(NULL_INSTRUMENTATION, observer=self.observer)
        self.hooks = FakeHooks(self.ledger)
        self.driver = PhaseDriver(
            RTSADS(
                comm=UniformCommunicationModel(remote_cost=5.0),
                per_vertex_cost=0.01,
            ),
            self.hooks,
            self.ledger,
        )
        self.now = 0.0
        self.next_id = 0
        self.requeues = 0

    def with_status(self, status: str) -> List[TaskRecord]:
        return [
            r for r in self.ledger.records.values() if r.status == status
        ]

    # ----- rules ------------------------------------------------------------

    @rule(
        count=st.integers(1, 4),
        laxity=st.floats(5.0, 400.0),
        cost=st.floats(1.0, 30.0),
    )
    def admit(self, count, laxity, cost):
        tasks = [
            make_task(
                self.next_id + i,
                cost,
                self.now + laxity,
                affinity=[(self.next_id + i) % PROCESSORS],
                arrival_time=self.now,
            )
            for i in range(count)
        ]
        self.next_id += count
        for task in tasks:
            self.ledger.open(TaskRecord(task))
        self.driver.admit(tasks)

    @rule(dt=st.floats(0.0, 300.0))
    def advance_clock(self, dt):
        self.now += dt

    @rule(declined=st.frozensets(st.integers(0, 2)))
    def run_phase(self, declined):
        self.hooks.declined_residues = declined
        trace = self.driver.run_phase(self.now)
        if trace is not None:
            self.now = max(self.now, trace.end)

    @precondition(lambda self: self.with_status(PENDING))
    @rule(data=st.data())
    def withdraw(self, data):
        record = data.draw(st.sampled_from(self.with_status(PENDING)))
        withdrawn = self.driver.withdraw([record.task_id])
        assert [t.task_id for t in withdrawn] == [record.task_id]
        self.ledger.settle(record.task_id, SHED, self.now)

    @precondition(lambda self: self.with_status(DELIVERED))
    @rule(processor=st.integers(0, PROCESSORS - 1))
    def surrender(self, processor):
        lost = [
            r.task_id
            for r in self.with_status(DELIVERED)
            if r.processor == processor
        ]
        self.driver.surrender(lost, self.now, processor)
        self.requeues += len(lost)

    @precondition(lambda self: self.with_status(DELIVERED))
    @rule(
        data=st.data(),
        status=st.sampled_from([COMPLETED, FAILED, SURRENDERED]),
        after=st.floats(0.0, 500.0),
    )
    def settle_delivered(self, data, status, after):
        """finish (maybe late), fail in flight, or revoke at a drain."""
        record = data.draw(st.sampled_from(self.with_status(DELIVERED)))
        self.ledger.settle(record.task_id, status, self.now + after)

    # ----- invariants -------------------------------------------------------

    @invariant()
    def books_balance(self):
        ledger = self.ledger
        records = ledger.records.values()
        still_open = sum(r.status not in TERMINAL for r in records)
        assert ledger.opened == len(records) == self.next_id
        assert ledger.opened == sum(ledger.settled.values()) + still_open
        assert ledger.still_open == still_open
        for status in TERMINAL:
            assert ledger.settled[status] == len(self.with_status(status))
        report = RunReport.from_ledgers(
            [ledger],
            backend="sim", scheduler_name="rtsads", num_workers=PROCESSORS,
            seed=0, workers_lost=0, makespan=self.now, wall_seconds=0.0,
            extras={"open": still_open},
        )
        report.check_balance()
        assert report.deadline_hits == sum(r.met_deadline for r in records)

    @invariant()
    def nothing_settles_twice(self):
        heard = self.observer.heard
        for record in self.ledger.records.values():
            task_id = record.task_id
            assert heard["open"][task_id] == 1
            expected = 1 if record.status in TERMINAL else 0
            assert heard["settle"][task_id] == expected
            assert heard["requeue"][task_id] == record.reschedules
            # Every placement but the standing one was undone by a requeue.
            placed = heard["place"][task_id] - record.reschedules
            assert placed == int(record.processor is not None)

    @invariant()
    def guaranteed_is_delivered_and_unrevoked(self):
        records = self.ledger.records.values()
        for record in records:
            assert record.guaranteed == (
                record.status in (DELIVERED, COMPLETED)
            )
        assert self.ledger.guaranteed == sum(r.guaranteed for r in records)

    @invariant()
    def reschedules_are_the_requeues(self):
        records = self.ledger.records.values()
        assert self.ledger.reschedules == self.requeues
        assert self.requeues == sum(r.reschedules for r in records)

    @invariant()
    def pending_records_are_the_drivers_backlog(self):
        assert self.driver.has_backlog() == bool(self.with_status(PENDING))


LedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestLedgerMachine = LedgerMachine.TestCase
