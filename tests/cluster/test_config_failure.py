"""ClusterConfig validation/conversions and failure-plan/monitor logic."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import ClusterConfig, FailurePlan, HeartbeatMonitor
from repro.cluster.config import GUARANTEE_MARGIN_SECONDS
from repro.experiments.config import ExperimentConfig


class TestClusterConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["seconds_per_unit", "heartbeat_interval", "max_wall_seconds"]
    )
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            ClusterConfig.smoke(**{field: value})

    def test_workers_mirror_experiment_processors(self):
        config = ClusterConfig.smoke(workers=6, tasks=50)
        assert config.num_workers == 6
        assert config.experiment.num_processors == 6
        assert config.experiment.num_transactions == 50

    def test_unit_conversions_are_inverse(self):
        config = ClusterConfig.smoke(workers=2, tasks=10)
        assert config.units_to_seconds(250.0) == pytest.approx(
            250.0 * config.seconds_per_unit
        )
        assert (
            config.units_to_seconds(321.5) / config.seconds_per_unit
        ) == pytest.approx(321.5)

    def test_guarantee_margin_in_units(self):
        config = ClusterConfig.smoke(workers=2, tasks=10)
        assert config.guarantee_margin_units == pytest.approx(
            GUARANTEE_MARGIN_SECONDS / config.seconds_per_unit
        )

    def test_with_port_preserves_everything_else(self):
        config = ClusterConfig.smoke()
        moved = config.with_port(5555)
        assert moved.port == 5555
        assert moved.experiment == config.experiment
        assert moved.heartbeat_interval == config.heartbeat_interval

    def test_rejects_nonpositive_time_scale(self):
        with pytest.raises(ValueError, match="seconds_per_unit"):
            ClusterConfig.smoke(seconds_per_unit=0.0)

    def test_rejects_failure_target_outside_cluster(self):
        with pytest.raises(ValueError, match="failure targets worker"):
            ClusterConfig.smoke(
                workers=2, failure=FailurePlan(worker_index=5, after_seconds=1)
            )

    def test_config_is_frozen(self):
        config = ClusterConfig.smoke()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.port = 1234

    def test_config_survives_pickling(self):
        """Workers receive the config through multiprocessing spawn."""
        import pickle

        config = ClusterConfig.smoke(
            failure=FailurePlan(worker_index=1, after_seconds=0.5)
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


class TestBuildClusterWorkload:
    def test_master_and_worker_builds_are_identical(self):
        """Both sides rebuild from (config, seed); any drift breaks the
        no-data-on-the-wire design."""
        from repro.cluster import build_cluster_workload

        experiment = ExperimentConfig.quick(
            num_transactions=20, num_processors=3, runs=1
        )
        db_a, tasks_a, txns_a = build_cluster_workload(experiment, seed=5)
        db_b, tasks_b, txns_b = build_cluster_workload(experiment, seed=5)
        assert [t.task_id for t in tasks_a] == [t.task_id for t in tasks_b]
        assert [t.deadline for t in tasks_a] == [t.deadline for t in tasks_b]
        assert [t.affinity for t in tasks_a] == [t.affinity for t in tasks_b]
        for processor in range(3):
            assert db_a.placement.contents_of(
                processor
            ) == db_b.placement.contents_of(processor)
        assert len(txns_a) == len(txns_b) == 20


class TestFailurePlan:
    def test_parse_valid_spec(self):
        plan = FailurePlan.parse("1@0.5")
        assert plan.worker_index == 1
        assert plan.after_seconds == 0.5

    @pytest.mark.parametrize(
        "spec", ["", "1", "@", "one@2", "1@soon", "1.5@2"]
    )
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            FailurePlan.parse(spec)

    @pytest.mark.parametrize("spec", ["1@nan", "1@inf"])
    def test_non_finite_delay_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            FailurePlan.parse(spec)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            FailurePlan(worker_index=-1, after_seconds=0.0)
        with pytest.raises(ValueError):
            FailurePlan(worker_index=0, after_seconds=-1.0)

    def test_due_only_for_target_after_delay(self):
        plan = FailurePlan(worker_index=2, after_seconds=1.0)
        assert not plan.due(worker_index=0, elapsed_seconds=99.0)
        assert not plan.due(worker_index=2, elapsed_seconds=0.5)
        assert plan.due(worker_index=2, elapsed_seconds=1.0)


class TestHeartbeatMonitor:
    def test_detection_within_two_intervals(self):
        """The acceptance bound: silence past interval*2 means dead."""
        monitor = HeartbeatMonitor(interval=0.25)
        monitor.register(0, now=0.0)
        assert monitor.expired(now=0.5) == []  # exactly at the bound
        assert monitor.expired(now=0.501) == [0]

    def test_beat_defers_expiry(self):
        monitor = HeartbeatMonitor(interval=1.0)
        monitor.register(0, now=0.0)
        monitor.beat(0, now=1.9)
        assert monitor.expired(now=2.5) == []
        assert monitor.expired(now=4.0) == [0]

    def test_each_death_reported_once(self):
        monitor = HeartbeatMonitor(interval=0.1)
        monitor.register(0, now=0.0)
        monitor.register(1, now=0.0)
        assert sorted(monitor.expired(now=10.0)) == [0, 1]
        assert monitor.expired(now=20.0) == []

    def test_beat_from_unknown_worker_is_ignored(self):
        monitor = HeartbeatMonitor(interval=0.1)
        monitor.beat(7, now=1.0)
        assert monitor.expired(now=10.0) == []

    def test_forget_stops_watching(self):
        monitor = HeartbeatMonitor(interval=0.1)
        monitor.register(0, now=0.0)
        monitor.forget(0)
        assert monitor.expired(now=10.0) == []

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(interval=0.0)
