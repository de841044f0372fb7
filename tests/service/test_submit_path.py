"""What one SUBMIT costs, and which SUBMITs the service refuses to parse.

Work, not seconds: with records in flight, a SUBMIT reads the admission
state the front keeps — it walks no record, and builds one view only
when it accepts.  A spy record table counts every record any walk
visits; a counting ``QueuedTask`` constructor counts views.
"""

from __future__ import annotations

import pytest

from repro.cluster import protocol
from repro.observability import Instrumentation, MemorySink
from repro.runtime.ledger import DELIVERED, PENDING
from repro.service import QueuedTask

from .kept_state import assert_kept_state_is_snapshot, offline_front


class CountingRecords(dict):
    """A record table that counts the records any walk over it visits."""

    visits = 0

    def _walk(self, items):
        for item in items:
            self.visits += 1
            yield item

    def __iter__(self):
        return self._walk(super().__iter__())

    def keys(self):
        return self._walk(super().keys())

    def values(self):
        return self._walk(super().values())

    def items(self):
        return self._walk(super().items())


def submit(front, request_id, template_id, relative=1000.0, conn=1):
    front.master._handle_frame(
        conn,
        {
            "type": protocol.SUBMIT,
            "request_id": request_id,
            "template_id": template_id,
            "relative_deadline": relative,
        },
    )


class TestWorkNotSeconds:
    def test_submits_visit_no_record_and_build_one_view_per_accept(
        self, monkeypatch
    ):
        front = offline_front(max_backlog_units=400.0)
        master = front.master
        try:
            small = sorted(
                t for t, task in front.templates.items()
                if task.processing_time < 20
            )
            for request_id in range(30):
                submit(front, request_id, small[request_id % len(small)])
                if request_id == 9:
                    master._schedule_ready_work()
            statuses = [r.status for r in master.records.values()]
            in_flight = len(statuses)
            assert in_flight >= 25
            assert PENDING in statuses and DELIVERED in statuses

            spy = CountingRecords(master.records)
            master.ledger.records = master.records = spy
            built = []
            init = QueuedTask.__init__

            def counting_init(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)

            monkeypatch.setattr(QueuedTask, "__init__", counting_init)
            opened, rejected = master.ledger.opened, master.ledger.rejected
            submissions = 40
            for request_id in range(30, 30 + submissions):
                submit(front, request_id, small[request_id % len(small)])
            accepted = master.ledger.opened - opened
            assert accepted + master.ledger.rejected - rejected == submissions
            assert 0 < accepted < submissions
            assert spy.visits == 0, (
                f"{submissions} SUBMITs visited {spy.visits} records "
                f"with {in_flight} in flight"
            )
            assert len(built) == accepted
        finally:
            master.close()


class TestNonFiniteDeadline:
    @pytest.mark.parametrize("relative", ["nan", "inf", "-inf"])
    def test_costs_only_its_own_connection(self, relative):
        """A SUBMIT whose relative deadline is not finite is a malformed
        frame: refused before it is counted, its connection dropped, one
        ``cluster_protocol_errors`` booked — and never admitted under a
        deadline no dispatch could meet."""
        obs = Instrumentation(sink=MemorySink())
        front = offline_front(instrumentation=obs)
        master = front.master
        try:
            template = min(front.templates)
            submit(front, 7, template, float(relative))
            assert master.hub.frames[1] == []  # no ACCEPT, no REJECT
            assert 1 in master.hub.cut
            assert master.ledger.opened == master.ledger.rejected == 0
            assert master.records == {}
            errors = obs.metrics.counter("cluster_protocol_errors").value
            assert errors == 1
            # A finite SUBMIT on a new connection is still served.
            submit(front, 8, template, conn=2)
            assert master.ledger.opened == 1
            assert master.hub.frames[2][0]["type"] == protocol.ACCEPT
            assert_kept_state_is_snapshot(front)
        finally:
            master.close()
