"""Dead roots against the frozen reference.

Most phases place nothing: at the projected offsets every admitted task
fails Figure 4's test on every processor the root expansion probes.
``run_phase`` asks the representation to certify that in one pass
(``Expander.dead_root``) and then builds no search state; the frozen
reference has no certificate and expands its root.  The cases here are
built so that the certificate fires (loaded workers, tight slack), sits on
its float boundary, is cut short by the budget, or meets an empty batch.
Each compares the full phase fingerprint and the expansion log with the
reference's, and the certificate's own cases also check that it fired.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import phase as optimized_phase
from repro.core import reference
from repro.core.affinity import (
    DistanceCommunicationModel,
    UniformCommunicationModel,
    ZeroCommunicationModel,
)
from repro.core.cost import LoadBalancingEvaluator
from repro.core.feasibility import EPSILON
from repro.core.representations import (
    AssignmentOrientedExpander,
    SequenceOrientedExpander,
)
from repro.core.search import WallClockBudget
from repro.core.task import make_task

from .harness import phase_fingerprint, run_phase_pair, stats_fingerprint

REPRESENTATIONS = {
    "rtsads": (
        AssignmentOrientedExpander,
        reference.ReferenceAssignmentOrientedExpander,
    ),
    "dcols": (
        SequenceOrientedExpander,
        reference.ReferenceSequenceOrientedExpander,
    ),
}

COMM_MODELS = {
    "uniform": lambda m: UniformCommunicationModel(remote_cost=15.0),
    "zero": lambda m: ZeroCommunicationModel(),
    "distance": lambda m: DistanceCommunicationModel(4.0, num_processors=m),
}


@pytest.fixture
def searched(monkeypatch):
    """The phases that ran the search, i.e. whose root was not certified."""
    calls = []
    run_search = optimized_phase.run_search

    def counting(*args, **kwargs):
        calls.append(1)
        return run_search(*args, **kwargs)

    monkeypatch.setattr(optimized_phase, "run_search", counting)
    return calls


def run_pair(representation, tasks, loads, quantum, comm, **kwargs):
    optimized, reference_expander = REPRESENTATIONS[representation]
    return run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        optimized(),
        reference_expander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
        **kwargs,
    )


def assert_identical(opt, ref, opt_log, ref_log) -> None:
    assert opt_log == ref_log
    assert phase_fingerprint(opt) == phase_fingerprint(ref)


def loaded_phase(rng: random.Random, m: int):
    """A tight-slack batch over workers loaded around its deadlines."""
    tasks = []
    for task_id in range(rng.randrange(4, 16)):
        processing = rng.uniform(2.0, 20.0)
        tasks.append(
            make_task(
                task_id,
                processing_time=processing,
                deadline=processing * (1.0 + rng.uniform(0.05, 2.0)) + 10.0,
                affinity=rng.sample(range(m), rng.randrange(1, m + 1)),
            )
        )
    loads = [rng.uniform(30.0, 90.0) for _ in range(m)]
    return tasks, loads, rng.uniform(2.0, 12.0)


def dead_phase(m: int, count: int = 10):
    """Tasks the pre-filter admits and every loaded worker refuses."""
    tasks = [
        make_task(i, processing_time=5.0 + i, deadline=100.0 + 10.0 * i)
        for i in range(count)
    ]
    return tasks, [500.0] * m


GRID = [
    (representation, m, seed)
    for representation in REPRESENTATIONS
    for m in (2, 4, 8)
    for seed in range(12)
]


@pytest.mark.parametrize("comm_model", sorted(COMM_MODELS))
@pytest.mark.parametrize("representation, m, seed", GRID)
def test_loaded_tight_phase_identical(representation, m, seed, comm_model):
    rng = random.Random(90_000 + 100 * m + seed)
    tasks, loads, quantum = loaded_phase(rng, m)
    assert_identical(
        *run_pair(representation, tasks, loads, quantum, COMM_MODELS[comm_model](m))
    )


def test_loaded_grid_mostly_certifies(searched):
    """The grid above is mostly dead roots, with searched phases beside them."""
    certified = 0
    for representation, m, seed in GRID:
        rng = random.Random(90_000 + 100 * m + seed)
        tasks, loads, quantum = loaded_phase(rng, m)
        before = len(searched)
        opt, *_ = run_pair(
            representation, tasks, loads, quantum, COMM_MODELS["uniform"](m)
        )
        if len(searched) == before:
            certified += 1
            assert opt.stats.expansions == 1 and not opt.schedule
    assert len(GRID) // 2 < certified < len(GRID)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_dcols_certifies_processor_zero_alone(m, searched):
    """Only processor 0 is loaded: D-COLS's root is dead, RT-SADS's is not."""
    tasks, _ = dead_phase(m)
    loads = [500.0] + [0.0] * (m - 1)
    comm = ZeroCommunicationModel()
    assert_identical(*run_pair("dcols", tasks, loads, 5.0, comm))
    assert not searched
    assert_identical(*run_pair("rtsads", tasks, loads, 5.0, comm))
    assert searched == [1]


@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
@pytest.mark.parametrize(
    "quantum, probes",
    [
        (0.0, 0),  # exhausted before the root is popped
        (4.0, 1),  # one probe charges 4 >= 4: truncated after it
        (8.0, 2),  # exactly two probes' charge: the boundary admits no third
        (10.0, 3),
        (38.0, 10),  # every task probed: maximal
    ],
)
def test_budget_cuts_dead_root_identically(representation, quantum, probes, searched):
    """``m = 4`` vertices per RT-SADS probe at one unit each."""
    tasks, loads = dead_phase(4)
    opt, ref, opt_log, ref_log = run_pair(
        representation, tasks, loads, quantum, ZeroCommunicationModel(),
        per_vertex_cost=1.0,
    )
    assert_identical(opt, ref, opt_log, ref_log)
    assert not searched
    if representation == "rtsads":
        assert opt.stats.task_probes == probes
        assert opt.stats.maximal == (probes == len(tasks))
        assert opt.stats.backtracks == (0 < probes < len(tasks))
    else:
        # D-COLS charges its m probes at once; only an empty budget saves it.
        assert opt.stats.dead_end == (quantum > 4.0)


@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
def test_prefilter_empties_the_batch(representation, searched):
    tasks = [
        make_task(i, processing_time=50.0, deadline=40.0 + i) for i in range(6)
    ]
    opt, ref, opt_log, ref_log = run_pair(
        representation, tasks, [0.0, 0.0], 5.0, ZeroCommunicationModel()
    )
    assert_identical(opt, ref, opt_log, ref_log)
    assert not searched
    assert opt.stats.complete and opt.stats.prefilter_rejected == len(tasks)


@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
@pytest.mark.parametrize("quantum_seconds", [0.0, 1e6])
def test_wall_clock_budget_behaves(representation, quantum_seconds, searched):
    """A certified root charges a wall-clock budget through its own methods."""
    tasks, loads = dead_phase(3)
    opt, ref, opt_log, ref_log = run_pair(
        representation, tasks, loads, 5.0, ZeroCommunicationModel(),
        budget_factory=lambda: WallClockBudget(quantum_seconds),
    )
    assert not searched
    assert opt_log == ref_log
    assert stats_fingerprint(opt.stats) == stats_fingerprint(ref.stats)
    assert not opt.schedule and not ref.schedule


def nudge(value: float, ulps: int) -> float:
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, step)
    return value


@settings(max_examples=300, deadline=None)
@given(
    representation=st.sampled_from(sorted(REPRESENTATIONS)),
    m=st.integers(1, 4),
    loads=st.lists(st.floats(0.0, 60.0), min_size=4, max_size=4),
    jobs=st.lists(
        st.tuples(st.floats(0.5, 30.0), st.integers(0, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    ),
    quantum=st.floats(0.5, 40.0),
    remote=st.floats(0.0, 30.0),
)
@example(  # exactly representable: d + EPSILON == bound + p on an idle worker
    representation="rtsads",
    m=2,
    loads=[0.0] * 4,
    jobs=[(3.5, 0, 0)],
    quantum=8.0,
    remote=0.0,
)
def test_deadline_on_the_boundary(representation, m, loads, jobs, quantum, remote):
    """Deadlines within 3 ulps of where ``bound + se <= d + EPSILON`` flips.

    Each job ``(p, target, ulps)`` places its deadline against one
    processor's scheduled end, so the float boundary falls on the best-case
    prune, on the per-processor test, or on the pre-filter when that
    processor is idle.
    """
    loads = loads[:m]
    comm = UniformCommunicationModel(remote_cost=remote)
    offsets = [max(0.0, load - quantum) for load in loads]
    tasks = []
    for task_id, (processing, target, ulps) in enumerate(jobs):
        affinity = frozenset({task_id % m})
        target %= m
        cost = 0.0 if target in affinity else remote
        scheduled_end = offsets[target] + (processing + cost)
        tasks.append(
            make_task(
                task_id,
                processing_time=processing,
                deadline=nudge(quantum + scheduled_end - EPSILON, ulps),
                affinity=affinity,
            )
        )
    assert_identical(*run_pair(representation, tasks, loads, quantum, comm))
