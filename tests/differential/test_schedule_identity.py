"""Full-simulation differential matrix: optimized vs frozen reference.

For every cell of the seeded matrix — processor counts m in 2..10,
replication rates R in {10, 30, 50}%, both RT-SADS and D-COLS — the
optimized scheduler and the reference-assembled scheduler simulate the
same workload and must produce *bit-identical* results: the same guarantee
set (which tasks were scheduled, on which processor, in which phase), the
same per-phase timings and search counters, and the same makespan.
"""

from __future__ import annotations

import pytest

from repro.core.affinity import UniformCommunicationModel
from repro.core.dcols import DCOLS
from repro.core.reference import reference_dcols, reference_rtsads
from repro.core.rtsads import RTSADS
from repro.experiments.config import ExperimentConfig

from .harness import run_matrix_cell, simulation_fingerprint

PROCESSOR_COUNTS = list(range(2, 11))
REPLICATION_RATES = [0.1, 0.3, 0.5]
SEED = 1998

_QUICK = ExperimentConfig.quick()


def _comm() -> UniformCommunicationModel:
    return UniformCommunicationModel(remote_cost=_QUICK.remote_cost)


def _pair(scheduler_name: str):
    comm = _comm()
    pvc = _QUICK.per_vertex_cost
    if scheduler_name == "rtsads":
        return (
            RTSADS(comm=comm, per_vertex_cost=pvc),
            reference_rtsads(comm=comm, per_vertex_cost=pvc),
        )
    return (
        DCOLS(comm=comm, per_vertex_cost=pvc),
        reference_dcols(comm=comm, per_vertex_cost=pvc),
    )


@pytest.mark.parametrize("replication", REPLICATION_RATES)
@pytest.mark.parametrize("num_processors", PROCESSOR_COUNTS)
@pytest.mark.parametrize("scheduler_name", ["rtsads", "dcols"])
def test_matrix_cell_is_bit_identical(
    scheduler_name: str, num_processors: int, replication: float
) -> None:
    optimized, reference = _pair(scheduler_name)
    seed = SEED + num_processors
    got = simulation_fingerprint(
        run_matrix_cell(optimized, num_processors, replication, seed)
    )
    want = simulation_fingerprint(
        run_matrix_cell(reference, num_processors, replication, seed)
    )
    assert got == want, (
        f"{scheduler_name} diverged from the reference at "
        f"m={num_processors}, R={replication}"
    )
