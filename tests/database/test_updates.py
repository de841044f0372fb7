"""Tests for update transactions: mutation, index maintenance, routing."""

import random

import pytest

from repro.database import (
    CHECK_COST,
    DatabaseConfig,
    DistributedDatabase,
    GlobalIndex,
    LockManager,
    LockMode,
    Schema,
    SubDatabase,
    Transaction,
    UpdateTransaction,
    WRITE_COST_FACTOR,
)
from repro.database.executor import LockAcquisitionBlocked, TransactionExecutor


@pytest.fixture
def schema():
    return Schema(num_subdatabases=2, num_attributes=3, domain_size=5)


def _subdb(schema, specs, subdb_id=0):
    domains = schema.all_domains(subdb_id)
    rows = [
        tuple(domains[a].low + spec[a] for a in range(3)) for spec in specs
    ]
    return SubDatabase(subdb_id, schema, rows)


class TestUpdateTransactionModel:
    def test_is_write(self, schema):
        d0 = schema.domain_for(0, 0)
        read = Transaction(0, {0: d0.low})
        write = UpdateTransaction(1, {0: d0.low}, updates={1: schema.domain_for(0, 1).low})
        assert not read.is_write
        assert write.is_write

    def test_requires_updates(self, schema):
        with pytest.raises(ValueError):
            UpdateTransaction(0, {0: schema.domain_for(0, 0).low}, updates={})

    def test_cross_subdb_update_rejected(self, schema):
        txn = UpdateTransaction(
            0,
            {0: schema.domain_for(0, 0).low},
            updates={1: schema.domain_for(1, 1).low},
        )
        with pytest.raises(ValueError, match="mixes"):
            txn.target_subdb(schema)

    def test_validate_checks_update_domains(self, schema):
        # New value belongs to attribute 2's slice, declared for attr 1.
        txn = UpdateTransaction(
            0,
            {0: schema.domain_for(0, 0).low},
            updates={1: schema.domain_for(0, 2).low},
        )
        with pytest.raises(ValueError):
            txn.validate_against(schema)


class TestApplyUpdate:
    def test_rows_mutated(self, schema):
        subdb = _subdb(schema, [(0, 1, 2), (0, 2, 2), (1, 1, 1)])
        d1 = schema.domain_for(0, 1)
        changed, deltas = subdb.apply_update(
            {0: schema.domain_for(0, 0).low}, {1: d1.low + 4}
        )
        assert changed == 2
        assert deltas == {}  # key attribute untouched
        matches = subdb.scan({1: d1.low + 4})
        assert len(matches) == 2

    def test_key_update_returns_deltas_and_rebuilds_index(self, schema):
        subdb = _subdb(schema, [(0, 1, 2), (0, 2, 2)])
        key_domain = schema.key_domain(0)
        changed, deltas = subdb.apply_update(
            {0: key_domain.low}, {0: key_domain.low + 3}
        )
        assert changed == 2
        assert deltas == {key_domain.low: -2, key_domain.low + 3: +2}
        assert subdb.key_frequency(key_domain.low) == 0
        assert subdb.key_frequency(key_domain.low + 3) == 2

    def test_noop_update_changes_nothing(self, schema):
        subdb = _subdb(schema, [(0, 1, 2)])
        d1 = schema.domain_for(0, 1)
        changed, deltas = subdb.apply_update(
            {1: d1.low + 1}, {1: d1.low + 1}  # same value
        )
        assert changed == 0
        assert deltas == {}

    def test_no_match_update(self, schema):
        subdb = _subdb(schema, [(0, 1, 2)])
        d1 = schema.domain_for(0, 1)
        changed, deltas = subdb.apply_update({1: d1.low + 4}, {1: d1.low})
        assert changed == 0


class TestGlobalIndexDeltas:
    def test_adjust_moves_frequency(self, schema):
        index = GlobalIndex(schema)
        key = schema.key_domain(0).low
        index.add(key, subdb=0, frequency=3)
        index.apply_deltas({key: -2, key + 1: +2})
        assert index.frequency(key) == 1
        assert index.frequency(key + 1) == 2

    def test_adjust_removes_zero_entries(self, schema):
        index = GlobalIndex(schema)
        key = schema.key_domain(0).low
        index.add(key, subdb=0, frequency=2)
        index.adjust(key, -2)
        assert index.lookup(key) is None

    def test_adjust_validation(self, schema):
        index = GlobalIndex(schema)
        key = schema.key_domain(0).low
        with pytest.raises(ValueError):
            index.adjust(key, -1)
        index.add(key, subdb=0, frequency=1)
        with pytest.raises(ValueError):
            index.adjust(key, -5)


class TestExecuteUpdate:
    def _database(self):
        return DistributedDatabase.build(
            config=DatabaseConfig(
                num_subdatabases=3, records_per_subdb=40, domain_size=5
            ),
            num_processors=3,
            replication_rate=0.5,
            rng=random.Random(3),
        )

    def test_update_through_executor_maintains_global_index(self):
        database = self._database()
        executor = database.global_executor()
        executor.global_index = database.index
        key = next(
            k for k in database.subdatabases[0].key_frequencies()
        )
        new_key = next(
            v
            for v in range(*[database.schema.key_domain(0).low,
                             database.schema.key_domain(0).high])
            if v != key
        )
        txn = UpdateTransaction(0, {0: key}, updates={0: new_key})
        before_total = database.index.total_indexed_tuples()
        outcome = executor.execute(txn)
        assert outcome.rows_changed > 0
        assert database.index.total_indexed_tuples() == before_total
        assert database.index.frequency(key) == 0 or (
            database.index.frequency(key) < outcome.rows_changed + 1
        )

    def test_update_cost_includes_write_factor(self):
        database = self._database()
        executor = database.global_executor()
        key = next(iter(database.subdatabases[0].key_frequencies()))
        other = database.schema.domain_for(0, 1)
        txn = UpdateTransaction(0, {0: key}, updates={1: other.low})
        outcome = executor.execute_update(txn)
        expected = CHECK_COST * (
            outcome.tuples_checked + WRITE_COST_FACTOR * outcome.rows_changed
        )
        assert outcome.cost == pytest.approx(expected)

    def test_estimate_upper_bounds_update_cost(self):
        database = self._database()
        executor = database.global_executor()
        key = next(iter(database.subdatabases[0].key_frequencies()))
        txn = UpdateTransaction(
            0, {0: key}, updates={1: database.schema.domain_for(0, 1).low}
        )
        estimate = database.cost_model.estimate(txn)
        outcome = executor.execute_update(txn)
        assert outcome.cost <= estimate.cost + 1e-9

    def test_locked_executor_blocks_conflicting_write(self):
        database = self._database()
        lm = LockManager()
        executor = TransactionExecutor(
            database.schema,
            database.subdatabases,
            lock_manager=lm,
        )
        key = next(iter(database.subdatabases[0].key_frequencies()))
        # Another transaction holds the partition exclusively.
        lm.acquire(0, owner=999, mode=LockMode.EXCLUSIVE)
        txn = UpdateTransaction(
            1, {0: key}, updates={1: database.schema.domain_for(0, 1).low}
        )
        with pytest.raises(LockAcquisitionBlocked):
            executor.execute(txn)

    def test_locked_executor_releases_after_read(self):
        database = self._database()
        lm = LockManager()
        executor = TransactionExecutor(
            database.schema, database.subdatabases, lock_manager=lm
        )
        key = next(iter(database.subdatabases[0].key_frequencies()))
        executor.execute(Transaction(5, {0: key}))
        assert lm.locked_resources() == set()


class TestWriteRouting:
    def test_write_affinity_is_primary_only(self):
        database = DistributedDatabase.build(
            config=DatabaseConfig(num_subdatabases=4, records_per_subdb=20),
            num_processors=4,
            replication_rate=1.0,  # reads can go anywhere
            rng=random.Random(0),
        )
        key = next(iter(database.subdatabases[2].key_frequencies()))
        read = Transaction(0, {0: key})
        write = UpdateTransaction(
            1, {0: key}, updates={1: database.schema.domain_for(2, 1).low}
        )
        assert len(database.affinity_of(read)) == 4
        assert database.affinity_of(write) == frozenset(
            {database.placement.primary_of(2)}
        )

    def test_write_task_tagged_update(self):
        database = DistributedDatabase.build(
            config=DatabaseConfig(num_subdatabases=2, records_per_subdb=20),
            num_processors=2,
            replication_rate=1.0,
            rng=random.Random(0),
        )
        key = next(iter(database.subdatabases[0].key_frequencies()))
        write = UpdateTransaction(
            1, {0: key}, updates={1: database.schema.domain_for(0, 1).low}
        )
        task = database.to_task(write, deadline=1_000.0)
        assert task.tag == "update"
        assert len(task.affinity) == 1
