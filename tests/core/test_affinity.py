"""Tests for communication models and affinity helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import affinity as affinity_module
from repro.core import (
    DistanceCommunicationModel,
    UniformCommunicationModel,
    ZeroCommunicationModel,
    make_task,
    random_affinity,
)


def _task(affinity, p=10.0):
    return make_task(0, processing_time=p, deadline=1000.0, affinity=affinity)


class TestUniformCommunicationModel:
    def test_affine_processor_is_free(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.cost(_task([1]), 1) == 0.0

    def test_non_affine_processor_costs_constant(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.cost(_task([1]), 0) == 50.0
        assert model.cost(_task([1]), 3) == 50.0  # distance-independent

    def test_execution_cost_adds_processing_time(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.execution_cost(_task([1], p=10.0), 0) == 60.0
        assert model.execution_cost(_task([1], p=10.0), 1) == 10.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            UniformCommunicationModel(remote_cost=-1.0)

    def test_zero_remote_cost_allowed(self):
        model = UniformCommunicationModel(remote_cost=0.0)
        assert model.cost(_task([1]), 0) == 0.0


class TestCommunicationRows:
    """``cost_row`` is ``cost`` for every processor, kept or not."""

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # which model
                st.frozensets(st.integers(min_value=0, max_value=12)),
                st.integers(min_value=1, max_value=10),  # m
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_kept_rows_equal_cost_for_any_affinity_m_and_model(self, steps):
        """Interleaved models and widths share nothing; repeats (which
        the small ranges make frequent) are served from the kept rows."""
        models = [
            UniformCommunicationModel(remote_cost=50.0),
            UniformCommunicationModel(remote_cost=0.5),
            DistanceCommunicationModel(per_hop_cost=3.0, num_processors=10),
        ]
        for which, affinity, m in steps:
            model, task = models[which], _task(affinity)
            expected = tuple(model.cost(task, k) for k in range(m))
            assert model.cost_row(task, m) == expected
            assert model.cost_row_and_min(task, m) == (expected, min(expected))

    def test_a_uniform_model_keeps_one_row_per_affinity_and_width(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        row = model.cost_row(_task([1, 3]), 4)
        assert row == (50.0, 0.0, 50.0, 0.0)
        # Another task, same affinity set: the same row object.
        assert model.cost_row(_task([3, 1], p=2.0), 4) is row
        assert model.cost_row(_task([1, 3]), 5) == row + (50.0,)

    def test_a_model_reading_other_fields_is_never_served_a_kept_row(self):
        class SizeAware(affinity_module.CommunicationModel):
            def cost(self, task, processor):
                return task.processing_time * processor

        model = SizeAware()
        assert model.cost_row_and_min(_task([0], p=2.0), 3) == (
            (0.0, 2.0, 4.0), 0.0,
        )
        assert model.cost_row(_task([0], p=3.0), 3) == (0.0, 3.0, 6.0)

    def test_kept_rows_are_bounded(self, monkeypatch):
        monkeypatch.setattr(affinity_module, "COMM_ROW_CACHE_SIZE", 8)
        model = UniformCommunicationModel(remote_cost=50.0)
        for width in range(1, 40):
            task = _task([width % 3])
            assert model.cost_row(task, width) == tuple(
                model.cost(task, k) for k in range(width)
            )
            assert len(model._rows) <= 8


class TestZeroCommunicationModel:
    def test_always_free(self):
        model = ZeroCommunicationModel()
        assert model.cost(_task([1]), 0) == 0.0
        assert model.cost(_task([]), 7) == 0.0


class TestDistanceCommunicationModel:
    def test_affine_is_free(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([3]), 3) == 0.0

    def test_cost_grows_with_distance(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([0]), 1) == 5.0
        assert model.cost(_task([0]), 4) == 20.0

    def test_uses_nearest_affine_processor(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([0, 6]), 5) == 5.0  # 5 is 1 hop from 6

    def test_empty_affinity_is_free(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([]), 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceCommunicationModel(per_hop_cost=-1.0, num_processors=4)
        with pytest.raises(ValueError):
            DistanceCommunicationModel(per_hop_cost=1.0, num_processors=0)


class TestRandomAffinity:
    def test_never_empty(self):
        rng = random.Random(0)
        for _ in range(200):
            affinity = random_affinity(8, 0.0, rng)
            assert len(affinity) == 1  # forced single home

    def test_full_probability_gives_all_processors(self):
        rng = random.Random(0)
        assert random_affinity(8, 1.0, rng) == frozenset(range(8))

    def test_probability_validated(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_affinity(8, 1.5, rng)
        with pytest.raises(ValueError):
            random_affinity(0, 0.5, rng)

    def test_mean_degree_tracks_probability(self):
        rng = random.Random(42)
        m, p, n = 10, 0.3, 2000
        sizes = [len(random_affinity(m, p, rng)) for _ in range(n)]
        mean_degree = sum(sizes) / (n * m)
        # Forced-home inflates the degree slightly above p at low p.
        assert 0.28 <= mean_degree <= 0.38

    def test_members_in_range(self):
        rng = random.Random(3)
        for _ in range(100):
            affinity = random_affinity(5, 0.4, rng)
            assert all(0 <= member < 5 for member in affinity)
