"""Partitioning the global database into sub-databases.

The paper divides the global database of ``r`` tuples into ``d``
sub-databases "through a hashing function in order to speed-up the location
of a tuple with respect to the sub-databases".  With the disjoint-domain
encoding of :mod:`repro.database.schema`, the hash is a perfect one — an
interval decode of the key value (:class:`IntervalHashPartitioner`).  A
classic modulo hash (:class:`ModuloHashPartitioner`) is included for global
tables whose key domains are not pre-partitioned.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Tuple

from .schema import Schema

Row = Tuple[int, ...]


class Partitioner(ABC):
    """Maps a key value to the sub-database that stores it."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    @abstractmethod
    def partition_of(self, key_value: int) -> int:
        """Index of the sub-database owning ``key_value``."""

    def split(
        self, rows: Iterable[Row], key_attribute: int
    ) -> Dict[int, List[Row]]:
        """Distribute rows of a global table into per-partition lists."""
        partitions: Dict[int, List[Row]] = {
            p: [] for p in range(self.num_partitions)
        }
        for row in rows:
            partitions[self.partition_of(row[key_attribute])].append(row)
        return partitions


class IntervalHashPartitioner(Partitioner):
    """Perfect hash over the disjoint per-sub-database domains."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema.num_subdatabases)
        self.schema = schema

    def partition_of(self, key_value: int) -> int:
        return self.schema.subdb_of_value(key_value)


class ModuloHashPartitioner(Partitioner):
    """Classic ``hash(key) mod d`` partitioning for unstructured domains."""

    def partition_of(self, key_value: int) -> int:
        if key_value < 0:
            raise ValueError(f"key values are non-negative, got {key_value}")
        # Multiplicative (Knuth) mixing so consecutive keys spread out.
        mixed = (key_value * 2654435761) & 0xFFFFFFFF
        return mixed % self.num_partitions
