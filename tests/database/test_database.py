"""Tests for the distributed-database facade."""

import random

import pytest

from repro.database import DatabaseConfig, DistributedDatabase, Transaction


@pytest.fixture
def database():
    return DistributedDatabase.build(
        config=DatabaseConfig(
            num_subdatabases=4,
            records_per_subdb=50,
            num_attributes=5,
            domain_size=10,
        ),
        num_processors=4,
        replication_rate=0.5,
        rng=random.Random(7),
    )


class TestBuild:
    def test_all_partitions_populated(self, database):
        assert len(database.subdatabases) == 4
        assert all(len(s) == 50 for s in database.subdatabases.values())

    def test_index_covers_global_database(self, database):
        assert database.index.total_indexed_tuples() == 200

    def test_config_totals(self):
        config = DatabaseConfig(num_subdatabases=4, records_per_subdb=50)
        assert config.total_records == 200

    def test_placement_respects_rate(self, database):
        placement = database.placement
        copies = [
            len(placement.processors_holding(subdb))
            for subdb in range(placement.num_subdatabases)
        ]
        assert all(c == 2 for c in copies)  # 0.5 * 4 processors

    def test_deterministic_build(self):
        def build():
            return DistributedDatabase.build(
                config=DatabaseConfig(num_subdatabases=2, records_per_subdb=20),
                num_processors=2,
                replication_rate=0.5,
                rng=random.Random(3),
            )

        a, b = build(), build()
        assert a.subdatabases[0].rows == b.subdatabases[0].rows
        assert a.placement.replicas == b.placement.replicas


class TestSchedulerViews:
    def _key_txn(self, database, subdb=0):
        key = database.schema.key_domain(subdb).low
        return Transaction(txn_id=0, predicates={0: key})

    def test_affinity_matches_placement(self, database):
        txn = self._key_txn(database, subdb=1)
        assert database.affinity_of(txn) == (
            database.placement.processors_holding(1)
        )

    def test_to_task_fields(self, database):
        txn = self._key_txn(database)
        task = database.to_task(txn, deadline=500.0)
        assert task.task_id == txn.txn_id
        assert task.deadline == 500.0
        assert task.processing_time == database.estimate_cost(txn)
        assert task.affinity == database.affinity_of(txn)
        assert task.tag == "indexed"

    def test_scan_task_tagged(self, database):
        value = database.schema.domain_for(2, 1).low
        txn = Transaction(txn_id=1, predicates={1: value})
        task = database.to_task(txn, deadline=5_000.0)
        assert task.tag == "scan"
        assert task.processing_time == 50.0  # r/d * k


class TestNodeViews:
    def test_executor_for_holds_local_replicas_only(self, database):
        for processor in range(4):
            executor = database.executor_for(processor)
            assert set(executor.subdatabases) == set(
                database.placement.contents_of(processor)
            )

    def test_affine_processor_can_execute(self, database):
        txn = self._txn_for_subdb(database, 0)
        processor = next(iter(database.affinity_of(txn)))
        outcome = database.executor_for(processor).execute(txn)
        assert outcome.subdb == 0

    def test_non_affine_processor_cannot_execute_locally(self, database):
        txn = self._txn_for_subdb(database, 0)
        holders = database.affinity_of(txn)
        outsiders = set(range(4)) - set(holders)
        if not outsiders:
            pytest.skip("fully replicated")
        with pytest.raises(LookupError):
            database.executor_for(next(iter(outsiders))).execute(txn)

    def test_global_executor_serves_everything(self, database):
        txn = self._txn_for_subdb(database, 3)
        outcome = database.global_executor().execute(txn)
        assert outcome.subdb == 3

    @staticmethod
    def _txn_for_subdb(database, subdb):
        key = database.schema.key_domain(subdb).low
        return Transaction(txn_id=0, predicates={0: key})
