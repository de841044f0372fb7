"""Tests for transaction execution against local replicas."""

import random

import pytest

from repro.database import (
    Schema,
    Transaction,
    TransactionExecutor,
    generate_subdatabase,
)


@pytest.fixture
def schema():
    return Schema(num_subdatabases=2, num_attributes=3, domain_size=4)


@pytest.fixture
def subdbs(schema):
    return {
        s: generate_subdatabase(s, schema, records=30, rng=random.Random(s))
        for s in range(2)
    }


class TestExecutor:
    def test_key_probe_counts_and_matches(self, schema, subdbs):
        executor = TransactionExecutor(schema, subdbs)
        subdb = subdbs[0]
        key = next(iter(subdb.key_frequencies()))
        outcome = executor.execute(Transaction(0, {0: key}))
        assert outcome.subdb == 0
        assert outcome.match_count == subdb.key_frequency(key)
        assert outcome.tuples_checked == subdb.key_frequency(key)

    def test_scan_checks_whole_partition(self, schema, subdbs):
        executor = TransactionExecutor(schema, subdbs)
        value = schema.domain_for(1, 2).low
        outcome = executor.execute(Transaction(0, {2: value}))
        assert outcome.tuples_checked == 30
        assert all(row[2] == value for row in outcome.matches)

    def test_missing_replica_raises(self, schema, subdbs):
        executor = TransactionExecutor(schema, {0: subdbs[0]})
        value = schema.domain_for(1, 1).low
        with pytest.raises(LookupError):
            executor.execute(Transaction(0, {1: value}))


class TestEstimatorAgreement:
    def test_actual_never_exceeds_estimate(self, schema, subdbs):
        """The host's worst-case estimate upper-bounds real checking work."""
        from repro.database import GlobalIndex, TransactionCostModel

        index = GlobalIndex.build(schema, subdbs.values())
        model = TransactionCostModel(schema, index, records_per_subdb=30)
        executor = TransactionExecutor(schema, subdbs)
        rng = random.Random(99)
        for txn_id in range(100):
            subdb = rng.randrange(2)
            count = rng.randint(1, 3)
            attributes = rng.sample(range(3), count)
            predicates = {
                a: schema.domain_for(subdb, a).sample(rng) for a in attributes
            }
            txn = Transaction(txn_id, predicates)
            # The estimate is worst-case: it upper-bounds the real work.
            assert (
                executor.execute(txn).tuples_checked
                <= model.estimate(txn).tuples_to_check
            )
