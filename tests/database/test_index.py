"""Tests for the global index file."""

import random

import pytest

from repro.database import GlobalIndex, Schema, generate_subdatabase


@pytest.fixture
def schema():
    return Schema(num_subdatabases=3, num_attributes=3, domain_size=5)


@pytest.fixture
def subdatabases(schema):
    return [
        generate_subdatabase(s, schema, records=40, rng=random.Random(s))
        for s in range(3)
    ]


class TestBuild:
    def test_total_indexed_tuples_equals_global_records(
        self, schema, subdatabases
    ):
        index = GlobalIndex.build(schema, subdatabases)
        assert index.total_indexed_tuples() == 120

    def test_frequency_matches_local_index(self, schema, subdatabases):
        index = GlobalIndex.build(schema, subdatabases)
        for subdb in subdatabases:
            for key, frequency in subdb.key_frequencies().items():
                assert index.frequency(key) == frequency

    def test_lookup_returns_owner(self, schema, subdatabases):
        index = GlobalIndex.build(schema, subdatabases)
        for subdb in subdatabases:
            key = next(iter(subdb.key_frequencies()))
            entry = index.lookup(key)
            assert entry.subdb == subdb.subdb_id

    def test_absent_key(self, schema):
        index = GlobalIndex(schema)
        assert index.lookup(0) is None
        assert index.frequency(0) == 0

    def test_mean_frequency(self, schema, subdatabases):
        index = GlobalIndex.build(schema, subdatabases)
        assert index.mean_frequency() == pytest.approx(
            120 / len(index)
        )

    def test_mean_frequency_empty(self, schema):
        assert GlobalIndex(schema).mean_frequency() == 0.0


class TestAdd:
    def test_rejects_wrong_owner(self, schema):
        index = GlobalIndex(schema)
        key_of_subdb1 = schema.key_domain(1).low
        with pytest.raises(ValueError, match="disjoint"):
            index.add(key_of_subdb1, subdb=0, frequency=3)

    def test_rejects_duplicate_key(self, schema):
        index = GlobalIndex(schema)
        key = schema.key_domain(0).low
        index.add(key, subdb=0, frequency=1)
        with pytest.raises(ValueError):
            index.add(key, subdb=0, frequency=2)

    def test_rejects_nonpositive_frequency(self, schema):
        index = GlobalIndex(schema)
        with pytest.raises(ValueError):
            index.add(schema.key_domain(0).low, subdb=0, frequency=0)
