"""Tests for the hash partitioners."""

import random

import pytest

from repro.database import (
    IntervalHashPartitioner,
    ModuloHashPartitioner,
    Schema,
)


class TestIntervalHashPartitioner:
    def test_perfect_hash_matches_schema(self):
        schema = Schema(num_subdatabases=4, num_attributes=3, domain_size=7)
        partitioner = IntervalHashPartitioner(schema)
        for subdb in range(4):
            key = schema.key_domain(subdb).low
            assert partitioner.partition_of(key) == subdb

    def test_split_routes_rows_home(self):
        schema = Schema(num_subdatabases=2, num_attributes=2, domain_size=5)
        partitioner = IntervalHashPartitioner(schema)
        rows = []
        for subdb in range(2):
            d0, d1 = schema.all_domains(subdb)
            rows.append((d0.low, d1.low))
        split = partitioner.split(rows, key_attribute=0)
        assert len(split[0]) == 1 and len(split[1]) == 1


class TestModuloHashPartitioner:
    def test_partition_in_range(self):
        partitioner = ModuloHashPartitioner(8)
        for key in range(1000):
            assert 0 <= partitioner.partition_of(key) < 8

    def test_deterministic(self):
        partitioner = ModuloHashPartitioner(8)
        assert partitioner.partition_of(42) == partitioner.partition_of(42)

    def test_reasonably_balanced(self):
        partitioner = ModuloHashPartitioner(4)
        rows = [(key,) for key in range(4000)]
        split = partitioner.split(rows, key_attribute=0)
        sizes = [len(rows) for rows in split.values()]
        assert sum(sizes) == 4000 and len(sizes) == 4
        assert min(sizes) > 700
        assert max(sizes) < 1300

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            ModuloHashPartitioner(4).partition_of(-1)

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            ModuloHashPartitioner(0)
