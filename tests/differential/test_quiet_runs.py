"""Quiet runs against the full frame: every stepped phase run both ways.

A simulated host steps a quiet run — phases that place nothing over an
unchanged batch, with no event between them — without the phase frame
(``DistributedRuntime._step_quiet_run``).  Each case here runs a workload
twice, as shipped and with every phase through the frame (``quiet_until``
answering ``-inf``), and requires the same phase traces, the same task
records and the same task events.  Deadlines are put within a few ulps of
the boundaries where a run must stop, read off a pilot run: the expiry
window ``d - p`` at a phase start, the pre-filter and idle-worker
certificate boundary ``t_s + Q + p (+ C)``, and a busy worker's
``F_k + p (+ C)``, each with and without the tests' ``EPSILON``.  Cases add early completions (they move ``F_k``),
fail-stop crashes, fixed and single-term quanta, and two domains.  One
constructed case pins the certificate's guard band: a deadline on a sum
whose rounding is not monotone in the phase start.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DCOLS, RTSADS, UniformCommunicationModel, make_task
from repro.core.domains import partition_workers
from repro.core.feasibility import EPSILON
from repro.core.quantum import (
    FixedQuantum,
    LoadOnlyQuantum,
    SelfAdjustingQuantum,
    SlackOnlyQuantum,
)
from repro.observability import NULL_INSTRUMENTATION, Instrumentation
from repro.observability.sinks import MemorySink
from repro.simulator import DistributedRuntime
from repro.simulator.execution import ScaledExecution

from .harness import simulation_fingerprint

SCHEDULERS = {"rtsads": RTSADS, "dcols": DCOLS}
POLICIES = {
    "self-adjusting": SelfAdjustingQuantum,
    "fixed": lambda: FixedQuantum(3.0),
    "load-only": LoadOnlyQuantum,
    "slack-only": SlackOnlyQuantum,
}
REMOTE_COST = 10.0


def burst(seed: int, n: int, m: int):
    """``n`` tasks, most at t = 0, most of them hopeless after the first fill."""
    rng = random.Random(seed)
    tasks = []
    for task_id in range(n):
        arrival = 0.0 if rng.random() < 0.7 else float(rng.randrange(0, 200))
        processing = float(rng.randrange(5, 60))
        slack = rng.uniform(0.0, 300.0)
        tasks.append(
            make_task(
                task_id,
                processing,
                arrival + processing + slack,
                arrival_time=arrival,
                affinity=rng.sample(range(m), rng.randint(1, m)),
            )
        )
    return tasks


def run(tasks, case, full_frame=False):
    """One run of ``case``; its report, task events and stepped phases."""
    comm = UniformCommunicationModel(REMOTE_COST)
    assignment = partition_workers(case["m"], case["k"])
    schedulers = [
        SCHEDULERS[case["scheduler"]](
            comm,
            quantum_policy=POLICIES[case["policy"]](),
            # Off on the scheduler, so phases may be stepped; the run's
            # own instrumentation below records every task event.
            instrumentation=NULL_INSTRUMENTATION,
        )
        for _ in assignment.domains
    ]
    if full_frame:
        for scheduler in schedulers:
            scheduler.quiet_until = lambda *args: -math.inf
    sink = MemorySink()
    runtime = DistributedRuntime(
        schedulers,
        assignment,
        tasks,
        remote_cost=REMOTE_COST,
        comm=comm,
        validate_phases=True,
        execution_model=(
            ScaledExecution(case["fraction"]) if case["fraction"] < 1 else None
        ),
        failures=case["failures"],
        instrumentation=Instrumentation(sink=sink),
    )
    report = runtime.run()
    return report, sink.of_kind("task"), runtime.phases_stepped


def assert_same_both_ways(tasks, case):
    """Both ways agree on everything; returns (phases stepped, phases)."""
    stepped, events, steps = run(tasks, case)
    framed, framed_events, none = run(tasks, case, full_frame=True)
    assert none == 0
    assert stepped.phases == framed.phases
    assert simulation_fingerprint(stepped) == simulation_fingerprint(framed)
    assert events == framed_events
    assert stepped.migration == framed.migration
    return steps, len(framed.phases)


def nudged(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable floats up (or down)."""
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, direction)
    return value


def boundary_anchors(report, failures_at=()):
    """Times a deadline minus its cost may sit on, read off a pilot run.

    Phase starts (expiry), phase starts plus their window (the pre-filter,
    and the certificate on an idle worker), completions (the certificate
    on a busy one) and crash times.
    """
    anchors = list(failures_at)
    for phase in report.phases:
        anchors += [phase.start, phase.start + phase.quantum]
    for record in report.trace.records.values():
        if record.finished_at is not None:
            anchors.append(record.finished_at)
    return anchors


@st.composite
def cases(draw):
    m = draw(st.integers(1, 4))
    failures = []
    if draw(st.booleans()):
        failures = [
            (float(draw(st.integers(0, 300))), draw(st.integers(0, m - 1)))
        ]
    return {
        "seed": draw(st.integers(0, 10_000)),
        "n": draw(st.integers(1, 18)),
        "m": m,
        "k": draw(st.sampled_from([1, 2] if m >= 2 else [1])),
        "scheduler": draw(st.sampled_from(sorted(SCHEDULERS))),
        "policy": draw(st.sampled_from(sorted(POLICIES))),
        "fraction": draw(st.sampled_from([1.0, 0.5])),
        "failures": failures,
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases(), data=st.data())
def test_stepped_phases_equal_the_full_frame_near_every_boundary(case, data):
    tasks = burst(case["seed"], case["n"], case["m"])
    pilot, _, _ = run(tasks, case, full_frame=True)
    anchors = boundary_anchors(pilot, [at for at, _ in case["failures"]])
    # Move up to three tasks' deadlines onto a boundary, a few ulps off.
    for _ in range(data.draw(st.integers(0, 3))):
        index = data.draw(st.integers(0, len(tasks) - 1))
        at = data.draw(st.sampled_from(anchors))
        task = tasks[index]
        cost = task.processing_time + data.draw(
            st.sampled_from([0.0, REMOTE_COST])
        )
        # The feasibility tests forgive EPSILON; expiry does not.
        slop = data.draw(st.sampled_from([0.0, EPSILON]))
        deadline = nudged(at + cost - slop, data.draw(st.integers(-3, 3)))
        if deadline > task.arrival_time:
            tasks[index] = make_task(
                task.task_id,
                task.processing_time,
                deadline,
                arrival_time=task.arrival_time,
                affinity=task.affinity,
            )
    assert_same_both_ways(tasks, case)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_bursts_step_many_of_their_phases(scheduler, k, fraction):
    """Not vacuous: a burst with late arrivals steps a fifth to a half of
    its phases (more on the paper's pure burst), and they agree."""
    case = {
        "m": 4,
        "k": k,
        "scheduler": scheduler,
        "policy": "self-adjusting",
        "fraction": fraction,
        "failures": [(150.0, 1)],
    }
    steps, phases = assert_same_both_ways(burst(1998, 60, 4), case)
    assert steps > phases / 8


def test_a_root_dead_only_by_rounding_is_not_stepped():
    """The guard band, pinned.  Task 0 keeps the one worker busy until
    ``F``; task 1 arrives meanwhile with its deadline on ``F + p`` (less
    ``EPSILON``), an ulp low.  Its test sums ``(t_s + Q) + ((F - t_s - Q) +
    p)``, which is ``F + p`` in reals but whose rounding wobbles by an ulp
    as ``t_s`` rises: the frame finds the root dead for twenty phases, then
    places the task.  Certified at the bound itself, the first dead phase
    would step straight over that placement."""
    case = {
        "m": 1,
        "k": 1,
        "scheduler": "rtsads",
        "policy": "fixed",
        "fraction": 1.0,
        "failures": [],
    }
    busy = make_task(0, 11.711, 26373.335, arrival_time=16373.335, affinity=[0])
    pilot, _, _ = run([busy], case, full_frame=True)
    finish = pilot.trace.records[0].finished_at
    late = make_task(
        1,
        23.736,
        nudged(finish + 23.736 - EPSILON, -1),
        arrival_time=16374.832,
        affinity=[0],
    )
    framed, _, _ = run([busy, late], case, full_frame=True)
    waiting = [p for p in framed.phases if p.start >= late.arrival_time]
    assert framed.trace.records[1].scheduled_phase == waiting[20].index
    assert all(p.scheduled == 0 for p in waiting[:20])
    assert_same_both_ways([busy, late], case)
