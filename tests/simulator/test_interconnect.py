"""Tests for mesh topology and interconnect models."""

import pytest

from repro.core import UniformCommunicationModel, make_task
from repro.simulator import (
    MeshCommunicationModel,
    MeshTopology,
    near_square_mesh,
)


class TestMeshTopology:
    def test_coordinates_row_major(self):
        mesh = MeshTopology(rows=2, cols=3)
        assert mesh.coordinates(0) == (0, 0)
        assert mesh.coordinates(2) == (0, 2)
        assert mesh.coordinates(3) == (1, 0)

    def test_hops_manhattan(self):
        mesh = MeshTopology(rows=3, cols=3)
        assert mesh.hops(0, 8) == 4
        assert mesh.hops(4, 4) == 0
        assert mesh.hops(1, 7) == 2

    def test_hops_symmetric(self):
        mesh = MeshTopology(rows=3, cols=4)
        for a in range(12):
            for b in range(12):
                assert mesh.hops(a, b) == mesh.hops(b, a)

    def test_diameter(self):
        assert MeshTopology(rows=3, cols=4).diameter() == 5

    def test_out_of_range(self):
        mesh = MeshTopology(rows=2, cols=2)
        with pytest.raises(ValueError):
            mesh.coordinates(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshTopology(rows=0, cols=3)


class TestNearSquareMesh:
    @pytest.mark.parametrize(
        "n,rows,cols", [(1, 1, 1), (4, 2, 2), (6, 2, 3), (10, 2, 5), (9, 3, 3)]
    )
    def test_dimensions(self, n, rows, cols):
        mesh = near_square_mesh(n)
        assert (mesh.rows, mesh.cols) == (rows, cols)
        assert mesh.size == n

    def test_prime_sizes_fall_back_to_row(self):
        mesh = near_square_mesh(7)
        assert mesh.size == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            near_square_mesh(0)


class TestMeshCommunicationModel:
    def test_affine_free(self):
        model = MeshCommunicationModel(5.0, MeshTopology(2, 3))
        task = make_task(0, processing_time=1.0, deadline=10.0, affinity=[4])
        assert model.cost(task, 4) == 0.0

    def test_cost_by_mesh_distance(self):
        model = MeshCommunicationModel(5.0, MeshTopology(2, 3))
        task = make_task(0, processing_time=1.0, deadline=10.0, affinity=[0])
        # Processor 5 is at (1,2): 3 hops from (0,0).
        assert model.cost(task, 5) == 15.0

    def test_nearest_replica_wins(self):
        model = MeshCommunicationModel(5.0, MeshTopology(2, 3))
        task = make_task(
            0, processing_time=1.0, deadline=10.0, affinity=[0, 4]
        )
        # Processor 5 is 1 hop from 4, 3 hops from 0.
        assert model.cost(task, 5) == 5.0
