"""The index is the scan: an indexed ``Batch`` against a dict-plus-scan model.

``Batch`` keeps its members in EDF order and indexed by latest start so a
phase reads its order, its expired tasks and its ``Min_Slack`` without
walking the batch.  Every one of those answers must be the one the walk
gives — the same tasks in the same order, the same float to the last bit —
because goldens, ledger event order and every simulated statistic rest on
them.  A twin drives the batch and the naive model through the same random
interleaving and compares after every step; hand mutations of the index
show that the comparison bites.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Batch, make_task, min_slack
from repro.core import batch as batch_module

MAX_EXAMPLES = 150

#: ``(d - p)`` values several windows share: equal keys with different ``p``.
SHARED_STARTS = (9.0, 31.1, 70.3, 171.6)

#: One-decimal and scaled processing times: their sums and differences round,
#: so a key ``fl(d - p)`` and the exact ``fl(now + p) > d`` can disagree by an
#: ulp — the cases a guard band exists for.
PROCESSING_TIMES = (
    1.0, 2.0, 5.0, 0.1, 0.3, 3.5, 7.6, 17.2, 17.4, 26.4, 27.7, 30.4, 38.4,
    38.5, 41.7, 42.8, 48.9, 3.0 * 0.37, 7.0 * 1.13,
)


@st.composite
def windows(draw):
    """One ``(deadline, processing_time)``: paper-shaped, shared-key or odd."""
    processing = draw(st.sampled_from(PROCESSING_TIMES))
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return 10.0 * processing, processing  # the paper's d = 10 p
    if shape == 1:
        return draw(st.sampled_from(SHARED_STARTS)) + processing, processing
    return processing + draw(st.floats(0.5, 300.0)), processing


def nudged(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable floats up (down if negative)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


class Twin:
    """A ``Batch`` and its naive model, stepped together and compared."""

    def __init__(self, batch: Batch) -> None:
        self.batch = batch
        self.model: dict = {}  # task id -> task, in admission order
        self.totals = dict(admitted=0, scheduled=0, expired=0, withdrawn=0)
        self.now = 0.0

    def add(self, tasks) -> None:
        assert self.batch.add_arrivals(tasks) == len(tasks)
        for task in tasks:
            self.model[task.task_id] = task
        self.totals["admitted"] += len(tasks)
        self.check()

    def remove(self, task_ids) -> None:
        removed = self.batch.remove_scheduled(task_ids)
        assert removed == [self.model.pop(task_id) for task_id in task_ids]
        self.totals["scheduled"] += len(task_ids)
        self.check()

    def withdraw(self, task_ids) -> None:
        withdrawn = self.batch.withdraw(task_ids)
        expected = [
            self.model.pop(task_id)
            for task_id in dict.fromkeys(task_ids)
            if task_id in self.model
        ]
        assert withdrawn == expected
        self.totals["withdrawn"] += len(expected)
        self.check()

    def expire(self, now: float) -> None:
        self.now = now
        expected = [t for t in self.model.values() if t.is_expired(now)]
        assert self.batch.drop_expired(now) == expected  # admission order
        for task in expected:
            del self.model[task.task_id]
        self.totals["expired"] += len(expected)
        self.check()

    def check(self) -> None:
        batch, members = self.batch, list(self.model.values())
        assert len(batch) == len(members)
        assert bool(batch) == bool(members)
        assert batch.tasks() == members
        order = batch.edf_order()
        assert order == sorted(members, key=lambda t: (t.deadline, t.task_id))
        scanned = min_slack(members, self.now)
        # Bitwise, not approx: Min_Slack sizes Q_s(j), which every later
        # float of the run descends from.
        assert batch.min_slack(self.now).hex() == scanned.hex()
        assert min_slack(order, self.now).hex() == scanned.hex()
        assert (
            batch.total_admitted,
            batch.total_scheduled,
            batch.total_expired,
            batch.total_withdrawn,
        ) == tuple(self.totals.values())


@given(data=st.data())
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_index_matches_scan_through_random_interleavings(data):
    twin = Twin(Batch())
    next_id = 0
    declined: list = []  # removed as scheduled, delivery declined: may return
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        members = list(twin.model)
        op = data.draw(st.sampled_from(
            ("add", "add", "remove", "withdraw", "expire", "expire", "readmit")
        ))
        if op == "add":
            # A small window pool, so many tasks share one (d, p).
            pool = data.draw(st.lists(windows(), min_size=1, max_size=3))
            arrivals = []
            for _ in range(data.draw(st.integers(1, 8))):
                deadline, processing = data.draw(st.sampled_from(pool))
                arrivals.append(make_task(next_id, processing, deadline))
                next_id += 1
            twin.add(arrivals)
        elif op == "remove" and members:
            chosen = data.draw(
                st.lists(st.sampled_from(members), max_size=4, unique=True)
            )
            declined.extend(twin.model[task_id] for task_id in chosen)
            twin.remove(chosen)
        elif op == "withdraw":
            twin.withdraw(data.draw(st.lists(
                st.sampled_from(members + [next_id + 7]), max_size=4
            )))
        elif op == "readmit" and declined:
            # Back after a declined delivery: the end of admission order.
            twin.add([declined.pop(data.draw(st.integers(0, len(declined) - 1)))])
        elif op == "expire":
            # Non-decreasing, and often within a few ulps of some d - p.
            target = twin.now + data.draw(st.sampled_from((0.0, 0.01, 1.0, 40.0)))
            if members and data.draw(st.booleans()):
                task = twin.model[data.draw(st.sampled_from(members))]
                target = nudged(
                    task.deadline - task.processing_time,
                    data.draw(st.integers(-3, 3)),
                )
            twin.expire(max(twin.now, target))


def test_long_simulation_magnitudes_keep_the_band_relative():
    """At clocks of 1e5 an ulp is ~1.5e-11: an absolute band would be too thin."""
    twin = Twin(Batch())
    base = 123456.7
    tasks = [
        make_task(i, p, base + p)
        for i, p in enumerate((0.1, 0.3, 17.4, 30.4, 3.0 * 0.37))
    ]
    twin.add(tasks)
    for ulps in range(-3, 4):
        twin.expire(max(twin.now, nudged(base, ulps)))


# ----- the comparison bites: hand mutations of the index ---------------------


class KeyDecidesBatch(Batch):
    """Mutant: the precomputed key ``d - p`` decides, with no guard band."""

    def drop_expired(self, now: float):
        due = [w for w in self._windows if w[0] < now]
        ids = sorted(
            (pair for w in due for pair in self._members[w].items()),
            key=lambda pair: pair[1],
        )
        expired = self._remove([task_id for task_id, _ in ids])
        self.total_expired += len(expired)
        return expired

    def min_slack(self, now: float) -> float:
        if not self._windows:
            return 0.0
        _, deadline, processing = self._windows[0]
        return max(0.0, deadline - now - processing)


class ZeroBandBatch(Batch):
    """Mutant: the exact expressions decide, but only where the key points."""

    def _key_limit(self, start: float, now: float) -> float:
        return start


class WindowOrderBatch(Batch):
    """Mutant: expired tasks come back in window order, not admission order."""

    def drop_expired(self, now: float):
        return sorted(super().drop_expired(now), key=batch_module.window_of)


def key_before_now_but_not_expired(twin: Twin) -> None:
    # fl(61.5 - 30.4) < now, yet fl(now + 30.4) > 61.5 is false.
    twin.add([make_task(0, 30.4, 61.5)])
    twin.expire(31.100000000000005)
    assert 0 in twin.batch


def keys_and_slacks_order_differently(twin: Twin) -> None:
    # fl(50.8 - 48.9) < fl(5.4 - 3.5), but at now = 0.12 the second task's
    # exact slack is the smaller by four ulps.
    twin.now = 0.12
    twin.add([make_task(0, 48.9, 50.8), make_task(1, 3.5, 5.4)])


def later_window_admitted_first(twin: Twin) -> None:
    twin.add([make_task(0, 2.0, 20.0), make_task(1, 1.0, 10.0)])
    twin.expire(50.0)


@pytest.mark.parametrize(
    "mutant, program",
    [
        (KeyDecidesBatch, key_before_now_but_not_expired),
        (KeyDecidesBatch, keys_and_slacks_order_differently),
        (ZeroBandBatch, keys_and_slacks_order_differently),
        (WindowOrderBatch, later_window_admitted_first),
    ],
)
def test_hand_mutation_is_caught(mutant, program):
    program(Twin(Batch()))  # a fair program: the real index survives it
    with pytest.raises(AssertionError):
        program(Twin(mutant()))
