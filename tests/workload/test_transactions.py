"""Tests for the transaction workload generator (paper Section 5.1)."""

import pytest

from repro.database import TransactionCostModel
from repro.experiments import ExperimentConfig
from repro.workload import (
    BurstyArrival,
    PoissonArrival,
    TransactionWorkloadConfig,
    TransactionWorkloadGenerator,
)
from repro.workload.transactions import build_seeded_workload


def _generator(database, **config_kwargs):
    defaults = dict(num_transactions=60, slack_factor=1.0, seed=3)
    defaults.update(config_kwargs)
    return TransactionWorkloadGenerator(
        database=database, config=TransactionWorkloadConfig(**defaults)
    )


class TestTransactionGeneration:
    def test_generates_requested_count(self, small_database):
        txns = _generator(small_database).generate_transactions()
        assert len(txns) == 60
        assert [t.txn_id for t in txns] == list(range(60))

    def test_transactions_well_formed(self, small_database):
        for txn in _generator(small_database).generate_transactions():
            txn.validate_against(small_database.schema)

    def test_single_subdatabase_per_transaction(self, small_database):
        schema = small_database.schema
        for txn in _generator(small_database).generate_transactions():
            owners = {
                schema.subdb_of_value(v) for v in txn.predicates.values()
            }
            assert len(owners) == 1

    def test_attribute_count_within_bounds(self, small_database):
        attributes = small_database.schema.num_attributes
        for txn in _generator(small_database).generate_transactions():
            assert 1 <= len(txn.predicates) <= attributes

    def test_bursty_default_arrivals(self, small_database):
        txns = _generator(small_database).generate_transactions()
        assert all(t.arrival_time == 0.0 for t in txns)

    def test_poisson_arrivals_propagate(self, small_database):
        generator = TransactionWorkloadGenerator(
            database=small_database,
            config=TransactionWorkloadConfig(num_transactions=20, seed=1),
            arrivals=PoissonArrival(rate=0.1),
        )
        txns = generator.generate_transactions()
        assert txns[-1].arrival_time > 0.0

    def test_deterministic_under_seed(self, small_database):
        a = _generator(small_database).generate_transactions()
        b = _generator(small_database).generate_transactions()
        assert [t.predicates for t in a] == [t.predicates for t in b]

    def test_key_probability_one_always_indexed(self, small_database):
        generator = _generator(small_database, key_probability=1.0)
        schema = small_database.schema
        for txn in generator.generate_transactions():
            assert txn.gives_key(schema)

    def test_key_probability_zero_never_indexed(self, small_database):
        generator = _generator(small_database, key_probability=0.0)
        schema = small_database.schema
        for txn in generator.generate_transactions():
            assert not txn.gives_key(schema)

    def test_write_fraction_zero_is_read_only(self, small_database):
        txns = _generator(small_database).generate_transactions()
        assert all(not t.is_write for t in txns)

    def test_write_fraction_generates_updates(self, small_database):
        generator = _generator(small_database, write_fraction=0.5)
        txns = generator.generate_transactions()
        writes = [t for t in txns if t.is_write]
        assert 10 < len(writes) < 50  # ~50% of 60
        for txn in writes:
            txn.validate_against(small_database.schema)
            assert 1 <= len(txn.updates) <= 2

    def test_write_tasks_pinned_to_primary(self, small_database):
        generator = _generator(small_database, write_fraction=1.0)
        tasks, txns = generator.generate()
        by_id = {t.task_id: t for t in tasks}
        for txn in txns:
            task = by_id[txn.txn_id]
            assert task.tag == "update"
            assert len(task.affinity) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransactionWorkloadConfig(num_transactions=0)
        with pytest.raises(ValueError):
            TransactionWorkloadConfig(slack_factor=0.0)
        with pytest.raises(ValueError):
            TransactionWorkloadConfig(key_probability=1.5)
        with pytest.raises(ValueError):
            TransactionWorkloadConfig(write_fraction=-0.1)


@pytest.fixture
def estimated(monkeypatch):
    """The ids of the transactions the cost model estimates, in order."""
    calls = []
    estimate = TransactionCostModel.estimate

    def counting(model, txn):
        calls.append(txn.txn_id)
        return estimate(model, txn)

    monkeypatch.setattr(TransactionCostModel, "estimate", counting)
    return calls


class TestTaskConversion:
    def test_each_transaction_is_estimated_once(
        self, small_database, estimated
    ):
        """The deadline and the task's processing time read one estimate."""
        _generator(small_database).generate()
        assert estimated == list(range(60))

    def test_a_seeded_build_estimates_each_transaction_once(self, estimated):
        """What every live master and worker builds at start-up."""
        config = ExperimentConfig.quick(num_transactions=40)
        build_seeded_workload(config, 3)
        assert estimated == list(range(40))

    def test_tasks_match_transactions(self, small_database):
        tasks, txns = _generator(small_database).generate()
        assert len(tasks) == len(txns)
        by_id = {t.task_id: t for t in tasks}
        for txn in txns:
            task = by_id[txn.txn_id]
            assert task.processing_time == small_database.estimate_cost(txn)
            assert task.affinity == small_database.affinity_of(txn)

    def test_deadlines_follow_paper_rule(self, small_database):
        tasks, txns = _generator(small_database, slack_factor=2.0).generate()
        by_id = {t.task_id: t for t in tasks}
        for txn in txns:
            task = by_id[txn.txn_id]
            expected = txn.arrival_time + 2.0 * 10.0 * task.processing_time
            assert task.deadline == pytest.approx(expected)

    def test_tags_identify_query_kind(self, small_database):
        tasks, txns = _generator(small_database).generate()
        schema = small_database.schema
        by_id = {t.task_id: t for t in tasks}
        for txn in txns:
            expected = "indexed" if txn.gives_key(schema) else "scan"
            assert by_id[txn.txn_id].tag == expected

    def test_generate_tasks_shortcut(self, small_database):
        tasks = _generator(small_database).generate_tasks()
        assert len(tasks) == 60
