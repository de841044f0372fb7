"""Tests for the quantum allocation policies (paper Figure 3)."""

import pytest

from repro.core import (
    FixedQuantum,
    LoadOnlyQuantum,
    SelfAdjustingQuantum,
    SlackOnlyQuantum,
    make_task,
    min_load,
    min_slack,
)


class TestTerms:
    def test_min_slack_over_batch(self):
        batch = [
            make_task(0, processing_time=10.0, deadline=100.0),  # slack 90
            make_task(1, processing_time=50.0, deadline=80.0),  # slack 30
        ]
        assert min_slack(batch, now=0.0) == 30.0

    def test_min_slack_uses_current_time(self):
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]
        assert min_slack(batch, now=50.0) == 40.0

    def test_min_slack_floors_at_zero(self):
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]
        assert min_slack(batch, now=95.0) == 0.0

    def test_min_slack_empty_batch(self):
        assert min_slack([], now=0.0) == 0.0

    def test_min_load(self):
        assert min_load([30.0, 10.0, 20.0]) == 10.0
        assert min_load([]) == 0.0


class TestSelfAdjustingQuantum:
    def test_takes_max_of_terms(self):
        policy = SelfAdjustingQuantum()
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]  # slack 90
        assert policy.quantum(batch, loads=[10.0, 20.0], now=0.0) == 90.0
        assert policy.quantum(batch, loads=[500.0, 200.0], now=0.0) == 200.0

    def test_idle_processor_gives_slack_term(self):
        policy = SelfAdjustingQuantum()
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]
        assert policy.quantum(batch, loads=[0.0, 0.0], now=0.0) == 90.0

    def test_min_quantum_floor(self):
        policy = SelfAdjustingQuantum()
        batch = [make_task(0, processing_time=10.0, deadline=10.5)]
        assert policy.quantum(batch, loads=[0.0], now=0.0) == policy.min_quantum
        assert policy.min_quantum == 1.0


class TestAblationPolicies:
    def test_slack_only_ignores_loads(self):
        policy = SlackOnlyQuantum()
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]
        assert policy.quantum(batch, loads=[9_999.0], now=0.0) == 90.0

    def test_load_only_ignores_slack(self):
        policy = LoadOnlyQuantum()
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]
        assert policy.quantum(batch, loads=[40.0, 60.0], now=0.0) == 40.0

    def test_fixed_quantum_is_constant(self):
        policy = FixedQuantum(25.0)
        batch = [make_task(0, processing_time=10.0, deadline=100.0)]
        assert policy.quantum(batch, loads=[1e6], now=0.0) == 25.0
        assert policy.quantum([], loads=[], now=99.0) == 25.0

    def test_fixed_quantum_validation(self):
        with pytest.raises(ValueError):
            FixedQuantum(0.0)
