"""Property-based differential tests (seeded, stdlib ``random``).

Two families:

* **Theorem invariant** (paper Section 4.3): under the quantum-aware
  feasibility test, no *guaranteed* task — one the scheduler delivered to a
  worker — ever misses its deadline, for either representation, across a
  seeded space of random workloads.
* **CL ordering invariants**: the heap-backed :class:`CandidateList` pops
  exactly the sequence the original flat pre-sorted stack popped, for
  arbitrary interleavings of pushes and pops, tie-heavy value
  distributions, and overflow eviction; and within any single block the
  popped values are non-decreasing with ties in generation order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.affinity import UniformCommunicationModel
from repro.core.dcols import DCOLS
from repro.core.reference import ReferenceCandidateList
from repro.core.rtsads import RTSADS
from repro.core.search import CandidateList, make_root
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_workload
from repro.simulator.runtime import simulate


def _vertex(value: float):
    vertex = make_root((0.0,))
    vertex.value = value
    return vertex


def _random_values(rng: random.Random, size: int):
    """Value distribution with deliberate collisions to stress tie-breaks."""
    pool = [rng.uniform(0.0, 5.0) for _ in range(max(1, size // 2))]
    return [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 5.0)
            for _ in range(size)]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("max_size", [None, 4, 16])
def test_cl_matches_reference_pop_sequence(seed: int, max_size) -> None:
    rng = random.Random(60_000 + seed)
    optimized = CandidateList(max_size=max_size)
    reference = ReferenceCandidateList(max_size=max_size)
    popped_opt, popped_ref = [], []
    for _ in range(rng.randrange(5, 40)):
        if rng.random() < 0.6:
            block = [_vertex(v) for v in _random_values(rng, rng.randrange(0, 7))]
            # The optimized CL orders internally; the reference expects the
            # pre-sorted blocks its original callers produced.
            optimized.push_block(block)
            reference.push_block(sorted(block, key=lambda v: v.value))
        else:
            for _ in range(rng.randrange(1, 4)):
                popped_opt.append(optimized.pop())
                popped_ref.append(reference.pop())
    while optimized or reference:
        popped_opt.append(optimized.pop())
        popped_ref.append(reference.pop())
    # Same objects in the same order (identity, not just equal values).
    assert [id(v) if v else None for v in popped_opt] == [
        id(v) if v else None for v in popped_ref
    ]
    assert len(optimized) == len(reference) == 0
    assert optimized.dropped == reference.dropped


@pytest.mark.parametrize("seed", range(10))
def test_cl_block_pops_are_stable_best_first(seed: int) -> None:
    rng = random.Random(70_000 + seed)
    cl = CandidateList()
    block = [_vertex(v) for v in _random_values(rng, rng.randrange(1, 12))]
    order = {id(v): i for i, v in enumerate(block)}
    cl.push_block(block)
    popped = [cl.pop() for _ in range(len(block))]
    keys = [(v.value, order[id(v)]) for v in popped]
    assert keys == sorted(keys), "pops must be best-first, ties in generation order"
    assert cl.pop() is None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scheduler_name", ["rtsads", "dcols"])
def test_no_guaranteed_task_misses_deadline(scheduler_name: str, seed: int) -> None:
    rng = random.Random(80_000 + seed)
    config = (
        ExperimentConfig.quick(num_transactions=40, runs=1)
        .with_processors(rng.choice([2, 3, 5, 8]))
        .with_replication(rng.choice([0.1, 0.3, 0.5]))
    )
    comm = UniformCommunicationModel(remote_cost=config.remote_cost)
    cls = RTSADS if scheduler_name == "rtsads" else DCOLS
    scheduler = cls(comm=comm, per_vertex_cost=config.per_vertex_cost)
    _, tasks = build_workload(config, rng.randrange(1, 10_000))
    result = simulate(
        scheduler=scheduler,
        workload=list(tasks),
        num_workers=config.num_processors,
    )
    assert not result.trace.scheduled_but_missed(), (
        f"{scheduler_name} guaranteed a task past its deadline "
        f"(m={config.num_processors}, R={config.replication_rate})"
    )
