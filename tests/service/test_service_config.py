"""ServiceConfig / JoinPlan validation and parsing (no sockets)."""

from __future__ import annotations

import pytest

from repro.service import JoinPlan, ServiceConfig


class TestJoinPlan:
    def test_parse(self):
        plan = JoinPlan.parse("3@2.5")
        assert plan.worker_index == 3
        assert plan.after_seconds == 2.5

    @pytest.mark.parametrize("spec", ["3", "@2", "a@1", "1@b", ""])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            JoinPlan.parse(spec)

    @pytest.mark.parametrize("spec", ["1@nan", "1@inf"])
    def test_non_finite_delay_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            JoinPlan.parse(spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinPlan(worker_index=-1, after_seconds=0.0)
        with pytest.raises(ValueError):
            JoinPlan(worker_index=0, after_seconds=-1.0)


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.admission_policy == "reject-newest"
        assert config.max_backlog_units == 0.0
        assert config.stop_when_idle is True

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(admission_policy="lifo")
        with pytest.raises(ValueError):
            ServiceConfig(max_backlog_units=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(drain_grace_seconds=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_service_seconds=-1.0)


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["max_backlog_units", "drain_grace_seconds", "max_service_seconds"],
    )
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            ServiceConfig(**{field: value})
