"""The global index file maintained by the host processor.

"To estimate the execution cost of a transaction, the host processor
maintains the global index file of the database.  If a transaction provides
a key value, the index file is used to evaluate the number of tuples a
processing node would need to check in the worst-case" (paper Section 5).

The index maps every key value present in the global database to its
sub-database and its frequency (number of matching tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .schema import Schema
from .table import SubDatabase


@dataclass(frozen=True)
class IndexEntry:
    """Where a key value lives and how many tuples carry it."""

    subdb: int
    frequency: int


class GlobalIndex:
    """Key-value -> (sub-database, frequency) map over all partitions."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._entries: Dict[int, IndexEntry] = {}

    @classmethod
    def build(
        cls, schema: Schema, subdatabases: Iterable[SubDatabase]
    ) -> "GlobalIndex":
        """Construct the index by collecting every partition's frequencies."""
        index = cls(schema)
        for subdb in subdatabases:
            for key_value, frequency in subdb.key_frequencies().items():
                index.add(key_value, subdb.subdb_id, frequency)
        return index

    def add(self, key_value: int, subdb: int, frequency: int) -> None:
        if frequency <= 0:
            raise ValueError("indexed frequencies must be positive")
        owner = self.schema.subdb_of_value(key_value)
        if owner != subdb:
            raise ValueError(
                f"key value {key_value} belongs to sub-database {owner}, "
                f"not {subdb} (disjoint-domain violation)"
            )
        if key_value in self._entries:
            raise ValueError(f"key value {key_value} already indexed")
        self._entries[key_value] = IndexEntry(subdb=subdb, frequency=frequency)

    def adjust(self, key_value: int, delta: int) -> None:
        """Apply an incremental frequency change from an update transaction.

        Entries reaching zero frequency are removed; new key values get a
        fresh entry in their owning sub-database.
        """
        if delta == 0:
            return
        entry = self._entries.get(key_value)
        if entry is None:
            if delta < 0:
                raise ValueError(
                    f"cannot decrement absent key value {key_value}"
                )
            self._entries[key_value] = IndexEntry(
                subdb=self.schema.subdb_of_value(key_value), frequency=delta
            )
            return
        frequency = entry.frequency + delta
        if frequency < 0:
            raise ValueError(
                f"frequency of key value {key_value} would drop below zero"
            )
        if frequency == 0:
            del self._entries[key_value]
        else:
            self._entries[key_value] = IndexEntry(
                subdb=entry.subdb, frequency=frequency
            )

    def apply_deltas(self, deltas: Dict[int, int]) -> None:
        """Apply a batch of frequency deltas (from SubDatabase.apply_update)."""
        for key_value, delta in deltas.items():
            self.adjust(key_value, delta)

    def lookup(self, key_value: int) -> Optional[IndexEntry]:
        """Entry for a key value, or ``None`` if no tuple carries it."""
        return self._entries.get(key_value)

    def frequency(self, key_value: int) -> int:
        """Worst-case tuples a node must check for this key (0 if absent)."""
        entry = self._entries.get(key_value)
        return entry.frequency if entry is not None else 0

    def __len__(self) -> int:
        return len(self._entries)

    def total_indexed_tuples(self) -> int:
        """Sum of frequencies — must equal the global record count."""
        return sum(entry.frequency for entry in self._entries.values())

    def mean_frequency(self) -> float:
        """Average tuples per present key value (index selectivity)."""
        if not self._entries:
            return 0.0
        return self.total_indexed_tuples() / len(self._entries)
