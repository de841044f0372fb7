"""Tests for replica placement."""

import random

import pytest

from repro.database import place_replicas
from repro.database.replication import replica_counts_for_rate


class TestReplicaCountsForRate:
    def test_mean_tracks_target_exactly(self):
        counts = replica_counts_for_rate(0.3, 8, 10)  # target 2.4 copies
        assert sum(counts) == 24
        assert set(counts) <= {2, 3}

    def test_never_below_one_or_above_m(self):
        counts = replica_counts_for_rate(0.05, 4, 10)
        assert all(c == 1 for c in counts)
        counts = replica_counts_for_rate(1.0, 4, 10)
        assert all(c == 4 for c in counts)

    def test_integral_target(self):
        counts = replica_counts_for_rate(0.5, 10, 10)
        assert counts == [5] * 10


class TestPlacement:
    def test_every_subdb_has_a_home(self):
        placement = place_replicas(10, 4, 0.1, rng=random.Random(0))
        for subdb in range(10):
            assert placement.processors_holding(subdb)

    def test_replica_count_matches_rate(self):
        placement = place_replicas(10, 10, 0.5, rng=random.Random(0))
        copies = [len(placement.processors_holding(s)) for s in range(10)]
        assert copies == [5] * 10

    def test_full_replication_everywhere(self):
        placement = place_replicas(6, 4, 1.0, rng=random.Random(0))
        for subdb in range(6):
            assert placement.processors_holding(subdb) == frozenset(range(4))

    def test_effective_affinity_degree(self):
        """The mean fraction of processors holding a sub-database is R."""
        placement = place_replicas(10, 10, 0.5, rng=random.Random(0))
        held = sum(len(placement.processors_holding(s)) for s in range(10))
        assert held / (10 * 10) == pytest.approx(0.5)

    def test_contents_of_inverts_placement(self):
        placement = place_replicas(8, 4, 0.4, rng=random.Random(3))
        for processor in range(4):
            for subdb in placement.contents_of(processor):
                assert processor in placement.processors_holding(subdb)

    def test_primaries_spread_round_robin(self):
        placement = place_replicas(8, 4, 0.1, rng=random.Random(0))
        for subdb in range(8):
            assert subdb % 4 in placement.processors_holding(subdb)

    def test_unknown_lookups_raise(self):
        placement = place_replicas(4, 2, 0.5, rng=random.Random(0))
        with pytest.raises(ValueError):
            placement.processors_holding(99)
        with pytest.raises(ValueError):
            placement.contents_of(5)

    def test_deterministic_under_seed(self):
        a = place_replicas(10, 5, 0.4, rng=random.Random(11))
        b = place_replicas(10, 5, 0.4, rng=random.Random(11))
        assert a.replicas == b.replicas

    def test_validation(self):
        with pytest.raises(ValueError):
            place_replicas(0, 4, 0.5)
        with pytest.raises(ValueError):
            place_replicas(4, 0, 0.5)
