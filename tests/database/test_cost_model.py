"""Tests for the Execution_Cost(q) estimator (paper Section 5)."""

import random

import pytest

from repro.database import (
    CHECK_COST,
    GlobalIndex,
    Schema,
    Transaction,
    TransactionCostModel,
    generate_subdatabase,
)


@pytest.fixture
def setup():
    schema = Schema(num_subdatabases=2, num_attributes=3, domain_size=4)
    subdbs = [
        generate_subdatabase(s, schema, records=40, rng=random.Random(s))
        for s in range(2)
    ]
    index = GlobalIndex.build(schema, subdbs)
    model = TransactionCostModel(
        schema=schema, index=index, records_per_subdb=40
    )
    return schema, subdbs, index, model


def _key_txn(schema, subdb, key_offset=0):
    return Transaction(
        txn_id=0, predicates={0: schema.key_domain(subdb).low + key_offset}
    )


def _scan_txn(schema, subdb):
    return Transaction(
        txn_id=1, predicates={1: schema.domain_for(subdb, 1).low}
    )


class TestEstimate:
    def test_key_transaction_uses_index_frequency(self, setup):
        schema, subdbs, index, model = setup
        txn = _key_txn(schema, 0)
        estimate = model.estimate(txn)
        assert estimate.used_index
        frequency = index.frequency(txn.key_value(schema))
        assert estimate.tuples_to_check == max(1, frequency)
        assert estimate.cost == CHECK_COST * estimate.tuples_to_check

    def test_scan_transaction_costs_full_partition(self, setup):
        schema, _, _, model = setup
        estimate = model.estimate(_scan_txn(schema, 1))
        assert not estimate.used_index
        assert estimate.tuples_to_check == 40  # r/d
        assert estimate.cost == 40.0
        assert estimate.target_subdb == 1

    def test_absent_key_still_costs_one_probe(self, setup):
        schema, subdbs, index, model = setup
        # Find a key value with frequency zero (domain size 4, 40 rows:
        # may not exist; construct by checking).
        domain = schema.key_domain(0)
        absent = [
            v for v in range(domain.low, domain.high)
            if index.frequency(v) == 0
        ]
        if not absent:
            pytest.skip("all key values present in generated data")
        txn = Transaction(txn_id=0, predicates={0: absent[0]})
        estimate = model.estimate(txn)
        assert estimate.tuples_to_check == 1
        assert estimate.cost == 1.0

    def test_estimates_are_positive(self, setup):
        """Tasks require p > 0; the estimator must never emit zero."""
        schema, _, _, model = setup
        for subdb in range(2):
            assert model.estimate(_key_txn(schema, subdb)).cost > 0
            assert model.estimate(_scan_txn(schema, subdb)).cost > 0

    def test_validation(self, setup):
        schema, _, index, _ = setup
        with pytest.raises(ValueError):
            TransactionCostModel(schema, index, records_per_subdb=0)
