"""Tests for the synthetic workload generator."""

import pytest

from repro.workload import (
    BurstyArrival,
    SyntheticWorkloadConfig,
    SyntheticWorkloadGenerator,
    UniformArrival,
)


class TestSyntheticGenerator:
    def test_generates_requested_count(self):
        tasks = SyntheticWorkloadGenerator(
            SyntheticWorkloadConfig(num_tasks=25, seed=1)
        ).generate()
        assert len(tasks) == 25

    def test_processing_times_within_bounds(self):
        config = SyntheticWorkloadConfig(
            num_tasks=100,
            min_processing_time=5.0,
            max_processing_time=9.0,
            seed=2,
        )
        tasks = SyntheticWorkloadGenerator(config).generate()
        assert all(5.0 <= t.processing_time <= 9.0 for t in tasks)

    def test_affinity_within_machine(self):
        config = SyntheticWorkloadConfig(
            num_tasks=50, num_processors=3, affinity_probability=0.5, seed=4
        )
        tasks = SyntheticWorkloadGenerator(config).generate()
        for task in tasks:
            assert task.affinity
            assert all(0 <= p < 3 for p in task.affinity)

    def test_deadline_uses_slack_factor(self):
        config = SyntheticWorkloadConfig(num_tasks=10, slack_factor=3.0, seed=5)
        tasks = SyntheticWorkloadGenerator(config).generate()
        for task in tasks:
            assert task.deadline == pytest.approx(
                task.arrival_time + 30.0 * task.processing_time
            )

    def test_custom_arrival_process(self):
        generator = SyntheticWorkloadGenerator(
            SyntheticWorkloadConfig(num_tasks=20, seed=6),
            arrivals=UniformArrival(0.0, 50.0),
        )
        tasks = generator.generate()
        assert any(t.arrival_time > 0.0 for t in tasks)

    def test_deterministic(self):
        config = SyntheticWorkloadConfig(num_tasks=20, seed=9)
        a = SyntheticWorkloadGenerator(config).generate()
        b = SyntheticWorkloadGenerator(config).generate()
        assert [t.processing_time for t in a] == [t.processing_time for t in b]
        assert [t.affinity for t in a] == [t.affinity for t in b]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(num_tasks=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(affinity_probability=2.0)
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(
                min_processing_time=10.0, max_processing_time=5.0
            )
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(slack_factor=0.0)
