"""Tests for deadline policies."""

import pytest

from repro.workload import PAPER_DEADLINE_MULTIPLIER, ProportionalDeadline


class TestProportional:
    def test_paper_formula(self):
        """Deadline(q) = SF * 10 * Estimated_Cost(q)."""
        policy = ProportionalDeadline(slack_factor=2.0)
        assert policy.deadline(0.0, 30.0) == 2.0 * 10.0 * 30.0

    def test_relative_to_arrival(self):
        policy = ProportionalDeadline(slack_factor=1.0)
        assert policy.deadline(100.0, 5.0) == 150.0

    def test_multiplier_default_is_ten(self):
        assert PAPER_DEADLINE_MULTIPLIER == 10.0

    def test_sf_one_is_tightest(self):
        tight = ProportionalDeadline(slack_factor=1.0).deadline(0.0, 10.0)
        loose = ProportionalDeadline(slack_factor=3.0).deadline(0.0, 10.0)
        assert tight < loose

    def test_validation(self):
        with pytest.raises(ValueError):
            ProportionalDeadline(slack_factor=0.0)
        with pytest.raises(ValueError):
            ProportionalDeadline(slack_factor=1.0).deadline(0.0, 0.0)
