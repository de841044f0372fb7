"""The load generator: due-time stamping, lateness, validity, the ledger."""

from types import SimpleNamespace

from serveload import (
    LATE_LIMIT_S,
    Ledger,
    PhaseStats,
    open_loop,
    phase_stats,
    schedule,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class FakeService:
    """Stands in for ServiceClient: answers each SUBMIT after ``delay``."""

    def __init__(self, clock, delay, stalls=()):
        self.clock, self.delay = clock, delay
        self.stalls = dict(stalls)     # request id -> seconds lost after it
        self.pending = []              # (ready time, message)
        self.requests = 0

    def submit(self, template_id):
        request_id = self.requests
        self.requests += 1
        kind = "ACCEPT" if template_id % 2 == 0 else "REJECT"
        self.pending.append(
            (self.clock.now + self.delay, {"type": kind, "request_id": request_id})
        )
        self.clock.now += self.stalls.get(request_id, 0.0)
        return SimpleNamespace(request_id=request_id)

    def poll(self, timeout):
        ready = [m for at, m in self.pending if at <= self.clock.now]
        if not ready:
            self.clock.now += max(timeout, 1e-4)
            ready = [m for at, m in self.pending if at <= self.clock.now]
        self.pending = [(at, m) for at, m in self.pending if at > self.clock.now]
        return ready


def test_latency_is_measured_from_the_due_time_not_the_send_time():
    clock = FakeClock(1.0)
    # The generator loses 10 ms right after the first SUBMIT, so the next
    # two go out late; the service itself answers in 2 ms.
    service = FakeService(clock, delay=0.002, stalls={0: 0.010})
    ledger = Ledger()
    dues = [1.000, 1.001, 1.002]
    open_loop(service, ledger, "rate-1000", dues, [0, 1, 2], clock=clock)
    while ledger.unanswered:
        ledger.absorb(service.poll(0.001), clock())
    stats = phase_stats("rate-1000", 1.0, 0.003, ledger.of_phase("rate-1000"))
    assert stats.submitted == stats.answered == 3
    assert stats.accepted == 2
    assert stats.late_s[0] == 0.0
    assert abs(stats.late_s[1] - 0.009) < 1e-9       # sent at 1.010, due 1.001
    assert 0.008 <= stats.late_s[2] < 0.0085     # right behind it
    # Charged from the due time: the stall shows up in the latency.
    assert all(latency >= 0.010 for latency in stats.admit_s[1:])
    sent_based = [e.answered - e.sent for e in ledger.of_phase("rate-1000")]
    assert all(latency < 0.004 for latency in sent_based[1:])


def test_phase_is_invalid_when_the_generator_ran_late():
    on_time = PhaseStats("rate-1000", 1.0, late_s=[0.0002] * 2000)
    assert on_time.valid
    stalled = PhaseStats("rate-1000", 1.0, late_s=[0.0002] * 1999 + [0.051])
    assert not stalled.valid                         # one stall over 50 ms
    late = PhaseStats(
        "rate-1000", 1.0, late_s=[0.0002] * 1900 + [LATE_LIMIT_S * 2] * 100
    )
    assert not late.valid                            # p99 over 5 ms
    # 160 samples support p90 at most: two late sends do not condemn them.
    few = PhaseStats("in-capacity", 4.0, late_s=[0.0002] * 158 + [0.008] * 2)
    assert few.valid
    assert PhaseStats("saturate", 1.0).valid          # closed loop: no schedule


def test_ledger_owes_until_answer_and_result():
    ledger = Ledger()
    ledger.sent(0, "p", due=0.0, now=0.0)
    ledger.sent(1, "p", due=0.0, now=0.0)
    assert ledger.owed == 2 and ledger.unanswered == 2
    ledger.absorb([{"type": "REJECT", "request_id": 0}], 0.1)
    ledger.absorb([{"type": "ACCEPT", "request_id": 1}], 0.1)
    assert ledger.owed == 1 and ledger.unanswered == 0
    ledger.absorb(
        [{"type": "RESULT", "request_id": 1, "met_deadline": True}], 0.2
    )
    assert ledger.owed == 0
    assert ledger.entries[1].results == 1 and ledger.entries[1].met_deadline
    ledger.absorb([{"type": "RESULT", "request_id": 99}], 0.3)   # not ours


def test_schedules_are_seeded_and_stay_inside_the_phase():
    import random

    even = schedule("in-capacity", 10.0, 2.0, random.Random(1))
    assert len(even) == 80 and even[0] == 10.0
    first = schedule("rate-1000", 5.0, 1.0, random.Random(7))
    again = schedule("rate-1000", 5.0, 1.0, random.Random(7))
    other = schedule("rate-1000", 5.0, 1.0, random.Random(8))
    assert first == again != other
    assert 850 < len(first) < 1150
    assert first == sorted(first) and 5.0 < first[0] and first[-1] < 6.0
