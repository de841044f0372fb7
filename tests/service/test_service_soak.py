"""Soak: thousands of submissions through the live streaming service.

A ~30s open-loop pounding of one served master (a
:class:`~repro.service.ServiceFront` on a ``ClusterMaster``) with a real
worker fleet, asserting the two properties that keep a long-lived
service long-lived:

* **bounded memory** — per-record pruning on RESULT keeps the master's
  ledger proportional to work *in flight*, never to work *ever seen*:
  the high-water mark of ``master.records`` must stay far below the
  submission count, and the ledger must be empty once everything
  settles;
* **result discipline** — every ACCEPT gets exactly one terminal
  RESULT (and every submission exactly one ACCEPT-or-REJECT), even at
  soak rates: the client settles every request and the master's
  terminal counts reconcile with its admission counters.
"""

from __future__ import annotations

import itertools
import time

import pytest

pytestmark = pytest.mark.slow

from repro.service import ServiceClient

from .test_service_live import (
    assert_port_released,
    await_ready,
    live_service,
    smoke_service,
)

#: Wall-clock budget for the submission loop (the whole test stays
#: comfortably inside the package hard timeout).
SOAK_SECONDS = 20.0
#: Submissions per burst between polls; small enough that ACCEPTs and
#: RESULTs interleave with admission instead of arriving in one wave.
BURST = 25
#: Flow-control window: stop submitting while this many requests are
#: unsettled, so the soak applies sustained load without overrunning the
#: master's TCP accept/response path (a blocked send is a client bug in
#: an open-loop generator, not a service property).
MAX_UNSETTLED = 400
#: The soak must actually soak: below this it proves nothing.
MIN_SUBMISSIONS = 1000


class TestServiceSoak:
    def test_bounded_records_and_exact_result_discipline(
        self, assert_no_leaked_children
    ):
        service = smoke_service(workers=3, tasks=32, stop_when_idle=False)
        submitted = 0
        high_water = 0
        with live_service(service) as (front, _workers, box):
            master = front.master
            await_ready(front)
            client = ServiceClient.connect("127.0.0.1", master.port)
            try:
                templates = itertools.cycle(sorted(front.templates))
                deadline = time.monotonic() + SOAK_SECONDS
                while time.monotonic() < deadline:
                    if len(client.unsettled()) < MAX_UNSETTLED:
                        for _ in range(BURST):
                            client.submit(next(templates))
                        submitted += BURST
                    client.poll(0.01)
                    high_water = max(high_water, len(master.records))
                assert client.drain(timeout=120.0), (
                    "unsettled submissions after soak: "
                    f"{len(client.unsettled())} of {submitted}"
                )
                outcomes = list(client.outcomes.values())
                assert len(outcomes) == submitted
                assert submitted >= MIN_SUBMISSIONS, (
                    f"soak too shallow to mean anything: {submitted} "
                    f"submissions in {SOAK_SECONDS}s"
                )
                # Exactly-one-RESULT: every accepted submission settled
                # in a terminal state; every rejection settled at REJECT.
                accepted = [o for o in outcomes if o.accepted]
                rejected = [o for o in outcomes if not o.accepted]
                assert all(
                    o.status in ("completed", "expired", "surrendered")
                    for o in accepted
                )
                assert all(o.reject_reason for o in rejected)
                # Minted task ids are unique: no RESULT was double-booked.
                minted = [o.task_id for o in accepted]
                assert len(set(minted)) == len(minted)
            finally:
                client.close()
            # Pruning bound: the ledger tracked in-flight work only.  A
            # leak of even a fraction of the soak's records blows this.
            assert high_water < max(200, submitted // 4), (
                f"master.records high-water {high_water} for {submitted} "
                f"submissions: records are not being pruned per-RESULT"
            )
            assert master.records == {}, (
                "settled records left in the ledger after drain"
            )
        report = box["report"]
        assert report.extras["accepted"] == len(accepted)
        assert report.extras["rejected"] == len(rejected)
        assert report.total_tasks == len(accepted) + len(rejected)
        assert (
            report.completed
            + report.expired
            + report.extras["surrendered"]
            == len(accepted)
        )
        # No zero-violation claim here: a wall-clock fleet under sustained
        # overload may blow a handful of guarantees (the gentle-load tests
        # assert zero); the soak's contract is accounting, not timing.
        assert_port_released(report.extras["port"])
