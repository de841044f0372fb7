"""The service front's kept admission state is the snapshot, always.

A hypothesis state machine drives a real :class:`ServiceFront` and its
master off the wire (:func:`kept_state.offline_front`) through every transition a
record can take — admission under each policy (least-slack sheds), phases
that dispatch, decline or expire, a worker whose link breaks mid-phase,
worker loss and rejoin, completions (stale ones too), a drain's surrender —
and after every step holds the kept views and unit totals to a
from-scratch walk of the records, with all three policies deciding alike
on both.  Every SUBMIT's decision and backpressure flag must be the ones
the snapshot gives.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.runtime.ledger import DELIVERED, SHED
from repro.service import ADMISSION_POLICY_NAMES, build_policy

from .kept_state import (
    Clock,
    assert_kept_state_is_snapshot,
    offline_front,
    snapshot_submit,
)

WORKERS = (0, 1)
TEMPLATES = tuple(range(16))
#: 0 = the template's own laxity; the rest are tight to roomy.
RELATIVE_DEADLINES = (0.0, 40.0, 90.0, 300.0, 1000.0)


class KeptStateMachine(RuleBasedStateMachine):
    @initialize(capacity=st.sampled_from([40.0, 120.0, 600.0]))
    def start(self, capacity):
        self.clock = Clock()
        self.front = offline_front(
            clock=self.clock, max_backlog_units=capacity
        )
        self.master = self.front.master
        self.next_conn = 200
        self.next_request = 0

    def teardown(self):
        master = getattr(self, "master", None)
        if master is not None:
            master.close()

    def delivered(self):
        return sorted(
            task_id
            for task_id, record in self.master.records.items()
            if record.status == DELIVERED
        )

    def dead_workers(self):
        return [w for w in WORKERS if not self.master.workers[w].alive]

    # ----- rules ------------------------------------------------------------

    @rule(
        policy=st.sampled_from(ADMISSION_POLICY_NAMES),
        templates=st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=4),
        relative=st.sampled_from(RELATIVE_DEADLINES),
    )
    def submit(self, policy, templates, relative):
        """A burst of SUBMITs, each decided as the snapshot decides it."""
        front, master = self.front, self.master
        front.policy = build_policy(policy)
        for template in templates:
            decision, backpressure = snapshot_submit(
                front, template, relative
            )
            opened = master.ledger.opened
            shed = master.ledger.settled[SHED]
            front._on_submit(
                1,
                {
                    "request_id": self.next_request,
                    "template_id": template,
                    "relative_deadline": relative,
                },
            )
            self.next_request += 1
            assert master.ledger.opened - opened == int(decision.accept)
            assert master.ledger.settled[SHED] - shed == len(decision.shed)
            assert not set(decision.shed) & set(master.records)
            assert front._backpressure == backpressure

    @rule(dt=st.sampled_from([1.0, 25.0, 120.0, 700.0]))
    def advance_clock(self, dt):
        self.clock.now += dt

    @rule()
    def run_phase(self):
        """Dispatch what passes the re-check, decline the rest, expire
        what can no longer make its deadline."""
        self.master._schedule_ready_work()

    @precondition(lambda self: not self.dead_workers())
    @rule(worker=st.sampled_from(WORKERS))
    def phase_over_a_broken_link(self, worker):
        """A send to ``worker`` fails mid-phase: its entries decline and
        its queue is requeued."""
        self.master.hub.cut.add(self.master.workers[worker].conn_id)
        self.master._schedule_ready_work()

    @rule(worker=st.sampled_from(WORKERS))
    def lose_worker(self, worker):
        self.master._worker_lost(worker, reason="missed heartbeats")

    @precondition(lambda self: self.dead_workers())
    @rule(data=st.data())
    def rejoin(self, data):
        worker = data.draw(st.sampled_from(self.dead_workers()))
        self.master._register_worker(self.next_conn, {"worker_id": worker})
        self.next_conn += 1

    @precondition(lambda self: self.delivered())
    @rule(data=st.data(), late=st.sampled_from([0.0, 5000.0]))
    def complete(self, data, late):
        task_id = data.draw(st.sampled_from(self.delivered()))
        record = self.master.records[task_id]
        self.clock.now += late
        self.master._on_task_done(
            100,
            {
                "worker_id": record.processor,
                "task_id": task_id,
                "actual_cost": record.planned_cost,
            },
        )

    @rule(task_id=st.integers(16, 40), worker=st.sampled_from(WORKERS))
    def stale_completion(self, task_id, worker):
        """A TASK_DONE for a task that is not (or no longer) on that
        worker settles nothing."""
        record = self.master.records.get(task_id)
        if record is not None and record.processor == worker:
            return
        self.master._on_task_done(
            100, {"worker_id": worker, "task_id": task_id, "actual_cost": 1.0}
        )

    @rule()
    def drain(self):
        self.front.surrender()
        assert self.master.records == {}

    # ----- invariants -------------------------------------------------------

    @invariant()
    def kept_state_is_the_snapshot(self):
        assert_kept_state_is_snapshot(self.front)


KeptStateMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestKeptStateMachine = KeptStateMachine.TestCase


class TestBackpressureFlips:
    def test_open_shedding_open_at_the_snapshots_submits(self):
        """A scripted stream overfills a 120-unit backlog, drains it
        through phases and completions, and refills it: the flag flips
        open -> shedding -> open exactly where the snapshot says."""
        clock = Clock()
        front = offline_front(clock=clock, max_backlog_units=120.0)
        master = front.master
        try:
            flips, flags = [], []
            small = [
                t for t in TEMPLATES
                if front.templates[t].processing_time < 20
            ]

            def submit(template):
                decision, expected = snapshot_submit(front, template, 1000.0)
                before = front._backpressure
                front._on_submit(
                    1,
                    {
                        "request_id": len(flags),
                        "template_id": template,
                        "relative_deadline": 1000.0,
                    },
                )
                assert front._backpressure == expected
                if front._backpressure != before:
                    flips.append((len(flags), front._backpressure))
                flags.append(front._backpressure)
                assert_kept_state_is_snapshot(front)

            for template in small * 2:  # 210 units offered: overflow
                submit(template)
            for _ in range(6):  # the backlog leaves for the workers
                master._schedule_ready_work()
                for task_id, record in list(master.records.items()):
                    if record.status == DELIVERED:
                        master._on_task_done(
                            100,
                            {
                                "worker_id": record.processor,
                                "task_id": task_id,
                                "actual_cost": record.planned_cost,
                            },
                        )
                clock.now += 50.0
            for template in small[:3]:
                submit(template)
            assert [engaged for _, engaged in flips] == [True, False], flips
        finally:
            master.close()
