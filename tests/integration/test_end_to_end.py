"""End-to-end integration: database -> workload -> scheduler -> simulator."""

import random

import pytest

from repro.core import DCOLS, RTSADS, UniformCommunicationModel
from repro.database import DatabaseConfig, DistributedDatabase
from repro.experiments import ExperimentConfig, run_once
from repro.metrics import hit_ratio_by_tag
from repro.simulator import simulate
from repro.workload import (
    TransactionWorkloadConfig,
    TransactionWorkloadGenerator,
)

CFG = ExperimentConfig.quick(num_transactions=80, runs=1, num_processors=4)


class TestFullPipeline:
    def test_database_workload_scheduler_simulator(self):
        """Build everything by hand and run the full paper pipeline."""
        rng = random.Random(5)
        database = DistributedDatabase.build(
            config=DatabaseConfig(
                num_subdatabases=6, records_per_subdb=100, domain_size=10
            ),
            num_processors=4,
            replication_rate=0.5,
            rng=rng,
        )
        generator = TransactionWorkloadGenerator(
            database=database,
            config=TransactionWorkloadConfig(num_transactions=60, seed=5),
        )
        tasks = generator.generate_tasks()
        comm = UniformCommunicationModel(40.0)
        result = simulate(
            RTSADS(comm, per_vertex_cost=0.02),
            tasks,
            num_workers=4,
            validate_phases=True,
        )
        assert result.total_tasks == 60
        assert not result.trace.scheduled_but_missed()
        assert result.deadline_hits > 0

    def test_affinity_respected_when_communication_prohibitive(self):
        """With huge C, tight tasks must execute on affine processors."""
        cfg = ExperimentConfig.quick(
            num_transactions=60, runs=1, num_processors=4, remote_cost=1e6
        )
        result = run_once(cfg, "rtsads", seed=2)
        for record in result.trace.records.values():
            if record.processor is not None and record.met_deadline:
                assert record.processor in record.task.affinity

    def test_execution_windows_respect_communication(self):
        result = run_once(CFG, "rtsads", seed=4)
        comm = UniformCommunicationModel(CFG.remote_cost)
        for record in result.trace.records.values():
            if record.finished_at is None:
                continue
            expected = comm.execution_cost(record.task, record.processor)
            assert record.finished_at - record.started_at == pytest.approx(
                expected
            )

    def test_per_tag_breakdown_present(self):
        result = run_once(CFG, "rtsads", seed=4)
        ratios = hit_ratio_by_tag(result.trace)
        assert set(ratios) <= {"indexed", "scan"}

    def test_work_conservation(self):
        """Completed task count equals machine-side completion counters."""
        result = run_once(CFG, "dcols", seed=4)
        per_processor = [0] * CFG.num_processors
        for lane, executed in result.trace.gantt().items():
            per_processor[lane] = len(executed)
        assert sum(per_processor) == result.completed


class TestTheoremAtScale:
    @pytest.mark.parametrize("name", ["rtsads", "dcols", "greedy_edf",
                                      "myopic", "random"])
    def test_no_scheduled_task_ever_late(self, name):
        """The paper's theorem, enforced end-to-end for every scheduler."""
        result = run_once(CFG, name, seed=11, validate_phases=True)
        assert result.trace.scheduled_but_missed() == []

    @pytest.mark.parametrize("replication", [0.1, 0.5, 1.0])
    def test_theorem_across_replication(self, replication):
        cfg = ExperimentConfig.quick(
            num_transactions=60, runs=1, replication_rate=replication,
            num_processors=5,
        )
        for name in ("rtsads", "dcols"):
            result = run_once(cfg, name, seed=3, validate_phases=True)
            assert result.trace.scheduled_but_missed() == []

    @pytest.mark.parametrize("slack_factor", [1.0, 2.0, 3.0])
    def test_theorem_across_laxity(self, slack_factor):
        cfg = ExperimentConfig.quick(
            num_transactions=60, runs=1, slack_factor=slack_factor,
            num_processors=4,
        )
        result = run_once(cfg, "rtsads", seed=3, validate_phases=True)
        assert result.trace.scheduled_but_missed() == []
