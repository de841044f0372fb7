"""Interconnect topology utilities for the distributed-memory machine.

The paper's machine (an Intel Paragon) is a 2-D mesh with wormhole routing,
which makes communication cost distance-independent — hence the uniform-C
model in :mod:`repro.core.affinity`.  This module supplies the topology
pieces used by the store-and-forward ablation and by anyone modelling
distance-sensitive costs: mesh coordinates, hop counts, and a convenience
constructor mapping a processor count to a near-square mesh like the
Paragon's backplane layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..core.affinity import DistanceCommunicationModel
from ..core.task import Task


@dataclass(frozen=True)
class MeshTopology:
    """A ``rows x cols`` 2-D mesh of processors, row-major numbered."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("mesh dimensions must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def coordinates(self, processor: int) -> Tuple[int, int]:
        """(row, col) of a processor id."""
        if not 0 <= processor < self.size:
            raise ValueError(
                f"processor {processor} outside mesh of size {self.size}"
            )
        return divmod(processor, self.cols)[0], processor % self.cols

    def hops(self, source: int, destination: int) -> int:
        """Manhattan (X-Y routed) hop count between two processors."""
        r1, c1 = self.coordinates(source)
        r2, c2 = self.coordinates(destination)
        return abs(r1 - r2) + abs(c1 - c2)

    def diameter(self) -> int:
        """Maximum hop count across the mesh."""
        return (self.rows - 1) + (self.cols - 1)


def near_square_mesh(num_processors: int) -> MeshTopology:
    """Smallest near-square mesh holding ``num_processors`` nodes."""
    if num_processors <= 0:
        raise ValueError("num_processors must be positive")
    rows = int(math.isqrt(num_processors))
    while num_processors % rows:
        rows -= 1
    return MeshTopology(rows=rows, cols=num_processors // rows)


class MeshCommunicationModel(DistanceCommunicationModel):
    """Store-and-forward cost over a 2-D mesh (ablation of wormhole routing).

    Cost of a non-affine execution is ``per_hop_cost`` times the Manhattan
    distance to the nearest processor holding the task's data.
    """

    def __init__(self, per_hop_cost: float, topology: MeshTopology) -> None:
        super().__init__(per_hop_cost=per_hop_cost, num_processors=topology.size)
        self.topology = topology

    def cost(self, task: Task, processor: int) -> float:
        if task.has_affinity(processor) or not task.affinity:
            return 0.0
        hops = min(self.topology.hops(processor, home) for home in task.affinity)
        return self.per_hop_cost * hops
