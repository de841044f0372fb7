"""Tests for execution-time models and resource reclaiming."""

import random

import pytest

from repro.core import (
    RTSADS,
    ScheduleEntry,
    UniformCommunicationModel,
    make_task,
)
from repro.database import DatabaseConfig, DistributedDatabase
from repro.simulator import (
    ExecutionModelError,
    FirstMatchDatabaseExecution,
    ScaledExecution,
    StochasticExecution,
    resolve_actual_cost,
    simulate,
)
from repro.workload import (
    SyntheticWorkloadConfig,
    SyntheticWorkloadGenerator,
    TransactionWorkloadConfig,
    TransactionWorkloadGenerator,
)


def _entry(p=10.0, comm=5.0, task_id=0):
    task = make_task(task_id, processing_time=p, deadline=10_000.0)
    return ScheduleEntry(
        task=task, processor=0, communication_cost=comm, scheduled_end=p + comm
    )


class TestModels:

    def test_scaled_keeps_communication(self):
        entry = _entry(p=10.0, comm=5.0)
        assert ScaledExecution(0.5).actual_cost(entry) == 10.0  # 5 + 0.5*10

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            ScaledExecution(0.0)
        with pytest.raises(ValueError):
            ScaledExecution(1.5)

    def test_stochastic_within_bounds_and_deterministic(self):
        model = StochasticExecution(0.3, 0.8, seed=1)
        entry = _entry(p=10.0, comm=0.0)
        values = {model.actual_cost(entry) for _ in range(5)}
        assert len(values) == 1  # deterministic per task
        value = values.pop()
        assert 3.0 <= value <= 8.0

    def test_stochastic_varies_across_tasks(self):
        model = StochasticExecution(0.1, 0.9, seed=1)
        costs = {
            model.actual_cost(_entry(p=10.0, comm=0.0, task_id=i))
            for i in range(20)
        }
        assert len(costs) > 5

    def test_stochastic_validation(self):
        with pytest.raises(ValueError):
            StochasticExecution(0.0, 0.5, seed=1)
        with pytest.raises(ValueError):
            StochasticExecution(0.9, 0.5, seed=1)


class TestResolve:
    def test_none_model_returns_plan(self):
        entry = _entry()
        assert resolve_actual_cost(None, entry) == entry.total_cost

    def test_rejects_cost_above_plan(self):
        class Bad:
            name = "Bad"

            def actual_cost(self, entry):
                return entry.total_cost * 2

        with pytest.raises(ExecutionModelError, match="worst case"):
            resolve_actual_cost(Bad(), _entry())

    def test_rejects_non_positive(self):
        class Zero:
            name = "Zero"

            def actual_cost(self, entry):
                return 0.0

        with pytest.raises(ExecutionModelError):
            resolve_actual_cost(Zero(), _entry())


class TestReclaimingRuntime:
    def _workload(self):
        return SyntheticWorkloadGenerator(
            SyntheticWorkloadConfig(
                num_tasks=40,
                num_processors=3,
                affinity_probability=0.5,
                slack_factor=1.5,
                seed=4,
            )
        ).generate()

    def test_reclaimed_time_recorded(self):
        comm = UniformCommunicationModel(20.0)
        result = simulate(
            RTSADS(comm),
            self._workload(),
            num_workers=3,
            execution_model=ScaledExecution(0.5),
        )
        assert result.trace.total_reclaimed_time() > 0
        for record in result.trace.records.values():
            if record.actual_cost is not None:
                assert record.actual_cost <= record.planned_cost + 1e-9

    def test_theorem_survives_early_completion(self):
        comm = UniformCommunicationModel(20.0)
        result = simulate(
            RTSADS(comm),
            self._workload(),
            num_workers=3,
            execution_model=StochasticExecution(0.2, 1.0, seed=9),
            validate_phases=True,
        )
        assert result.trace.scheduled_but_missed() == []

    def test_reclaiming_never_reduces_hit_ratio(self):
        comm = UniformCommunicationModel(20.0)
        worst = simulate(RTSADS(comm), self._workload(), num_workers=3)
        reclaimed = simulate(
            RTSADS(comm),
            self._workload(),
            num_workers=3,
            execution_model=ScaledExecution(0.4),
        )
        assert reclaimed.hit_ratio >= worst.hit_ratio


class TestFirstMatchDatabaseExecution:
    def test_actual_bounded_by_estimate(self):
        database = DistributedDatabase.build(
            config=DatabaseConfig(
                num_subdatabases=4, records_per_subdb=60, domain_size=6
            ),
            num_processors=4,
            replication_rate=0.5,
            rng=random.Random(2),
        )
        generator = TransactionWorkloadGenerator(
            database=database,
            config=TransactionWorkloadConfig(num_transactions=50, seed=2),
        )
        tasks, txns = generator.generate()
        model = FirstMatchDatabaseExecution(database, txns)
        by_id = {t.task_id: t for t in tasks}
        for txn in txns:
            task = by_id[txn.txn_id]
            entry = ScheduleEntry(
                task=task,
                processor=0,
                communication_cost=0.0,
                scheduled_end=task.processing_time,
            )
            actual = model.actual_cost(entry)
            assert 0 < actual <= entry.total_cost + 1e-9

    def test_unknown_task_falls_back_to_plan(self):
        database = DistributedDatabase.build(
            config=DatabaseConfig(num_subdatabases=2, records_per_subdb=20),
            num_processors=2,
            replication_rate=0.5,
            rng=random.Random(1),
        )
        model = FirstMatchDatabaseExecution(database, [])
        entry = _entry()
        assert model.actual_cost(entry) == entry.total_cost

    def test_end_to_end_with_database_execution(self):
        database = DistributedDatabase.build(
            config=DatabaseConfig(
                num_subdatabases=4, records_per_subdb=60, domain_size=6
            ),
            num_processors=4,
            replication_rate=0.5,
            rng=random.Random(2),
        )
        generator = TransactionWorkloadGenerator(
            database=database,
            config=TransactionWorkloadConfig(num_transactions=50, seed=2),
        )
        tasks, txns = generator.generate()
        comm = UniformCommunicationModel(30.0)
        result = simulate(
            RTSADS(comm, per_vertex_cost=0.02),
            tasks,
            num_workers=4,
            execution_model=FirstMatchDatabaseExecution(database, txns),
        )
        assert result.trace.scheduled_but_missed() == []


class TestFirstMatchProbe:
    def test_probe_first_match_early_exit(self):
        from repro.database import Schema, SubDatabase

        schema = Schema(num_subdatabases=1, num_attributes=2, domain_size=4)
        d0, d1 = schema.all_domains(0)
        rows = [
            (d0.low, d1.low + 1),
            (d0.low + 1, d1.low),  # first full match for the query below
            (d0.low + 2, d1.low),
        ]
        subdb = SubDatabase(0, schema, rows)
        match, checked = subdb.probe_first_match({1: d1.low})
        assert match == rows[1]
        assert checked == 2  # stopped before the third row

    def test_probe_first_match_no_match_scans_all(self):
        from repro.database import Schema, SubDatabase

        schema = Schema(num_subdatabases=1, num_attributes=2, domain_size=4)
        d0, d1 = schema.all_domains(0)
        rows = [(d0.low, d1.low)] * 3
        subdb = SubDatabase(0, schema, rows)
        match, checked = subdb.probe_first_match({1: d1.low + 1})
        assert match is None
        assert checked == 3
