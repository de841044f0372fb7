"""Phase-level differential tests with full expansion-trace equality.

Runs single scheduling phases through the optimized ``repro.core.phase``
loop and the frozen ``repro.core.reference`` loop over seeded random
batches and asserts the strongest equivalence the harness checks anywhere:
the exact sequence of expanded vertices, every successor block (with
full-precision evaluator values), every ``SearchStats`` counter, and the
extracted schedule entries all match bit-for-bit — including under tiny
``max_candidates`` bounds that force the CL eviction paths.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core import reference
from repro.core.affinity import (
    UniformCommunicationModel,
    ZeroCommunicationModel,
)
from repro.core.batch import Batch
from repro.core.cost import EarliestFinishEvaluator, LoadBalancingEvaluator
from repro.core.representations import (
    AssignmentOrientedExpander,
    SequenceOrientedExpander,
)

from .harness import phase_fingerprint, random_batch, run_phase_pair


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("num_processors", [2, 4, 8])
def test_assignment_phase_trace_identical(seed: int, num_processors: int) -> None:
    rng = random.Random(10_000 + seed)
    tasks = random_batch(rng, num_tasks=18, num_processors=num_processors)
    loads = [rng.uniform(0.0, 25.0) for _ in range(num_processors)]
    quantum = rng.uniform(10.0, 60.0)
    comm = UniformCommunicationModel(remote_cost=rng.uniform(5.0, 40.0))
    opt, ref, opt_log, ref_log = run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert opt_log == ref_log
    assert phase_fingerprint(opt) == phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("num_processors", [2, 4, 8])
def test_sequence_phase_trace_identical(seed: int, num_processors: int) -> None:
    rng = random.Random(20_000 + seed)
    tasks = random_batch(rng, num_tasks=18, num_processors=num_processors)
    loads = [rng.uniform(0.0, 25.0) for _ in range(num_processors)]
    quantum = rng.uniform(10.0, 60.0)
    comm = UniformCommunicationModel(remote_cost=rng.uniform(5.0, 40.0))
    opt, ref, opt_log, ref_log = run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        SequenceOrientedExpander(),
        reference.ReferenceSequenceOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert opt_log == ref_log
    assert phase_fingerprint(opt) == phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_candidates", [1, 3, 8])
def test_cl_eviction_paths_identical(seed: int, max_candidates: int) -> None:
    """Tiny CL bounds exercise heap-block eviction vs flat-stack trimming."""
    rng = random.Random(30_000 + seed)
    m = 4
    tasks = random_batch(rng, num_tasks=14, num_processors=m)
    loads = [rng.uniform(0.0, 15.0) for _ in range(m)]
    quantum = rng.uniform(20.0, 80.0)
    comm = UniformCommunicationModel(remote_cost=15.0)
    opt, ref, opt_log, ref_log = run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
        max_candidates=max_candidates,
    )
    assert opt_log == ref_log
    assert phase_fingerprint(opt) == phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(6))
def test_earliest_finish_evaluator_identical(seed: int) -> None:
    """The incremental-friendly EF evaluator matches its reference twin."""
    rng = random.Random(40_000 + seed)
    m = 5
    tasks = random_batch(rng, num_tasks=16, num_processors=m)
    loads = [rng.uniform(0.0, 20.0) for _ in range(m)]
    quantum = rng.uniform(15.0, 70.0)
    comm = UniformCommunicationModel(remote_cost=25.0)
    opt, ref, opt_log, ref_log = run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        EarliestFinishEvaluator(),
        reference.ReferenceEarliestFinishEvaluator(),
    )
    assert opt_log == ref_log
    assert phase_fingerprint(opt) == phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(4))
def test_zero_communication_model_identical(seed: int) -> None:
    """All-ties regime: zero comm makes many evaluator values collide,
    stressing the (value, seq) tie-breaking against the stable sort."""
    rng = random.Random(50_000 + seed)
    m = 4
    tasks = random_batch(rng, num_tasks=12, num_processors=m)
    loads = [0.0] * m
    quantum = 50.0
    comm = ZeroCommunicationModel()
    opt, ref, opt_log, ref_log = run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert opt_log == ref_log
    assert phase_fingerprint(opt) == phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(8))
def test_batch_order_and_unsorted_list_give_identical_phases(seed: int) -> None:
    """EDF order carried by type is the order the shared key sorts into.

    ``run_phase`` skips its sort for a batch's own ``edf_order()``; handed
    the same members as a shuffled plain list it sorts them itself, and the
    frozen reference always does.  All three phases must be one phase.
    """
    rng = random.Random(20_000 + seed)
    tasks = random_batch(rng, num_tasks=18, num_processors=4)
    # Deadline ties, so the id half of the key has to do its part.
    tasks += [replace(task, task_id=100 + task.task_id) for task in tasks[:4]]
    rng.shuffle(tasks)
    loads = [rng.uniform(0.0, 25.0) for _ in range(4)]
    quantum = rng.uniform(10.0, 60.0)
    comm = UniformCommunicationModel(remote_cost=rng.uniform(5.0, 40.0))
    ordered = Batch(tasks).edf_order()
    assert list(ordered) != tasks
    from_order, reference_phase, order_log, reference_log = run_phase_pair(
        ordered,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    from_list, _, list_log, _ = run_phase_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert order_log == list_log == reference_log
    assert (
        phase_fingerprint(from_order)
        == phase_fingerprint(from_list)
        == phase_fingerprint(reference_phase)
    )
