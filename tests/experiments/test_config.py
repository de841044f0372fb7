"""Tests for experiment configurations."""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments import (
    PROCESSOR_SWEEP,
    REPLICATION_SWEEP,
    SLACK_FACTOR_SWEEP,
    ExperimentConfig,
)
from repro.metrics.stats import SIGNIFICANCE_LEVEL


class TestScales:
    def test_paper_defaults_match_section_51(self):
        config = ExperimentConfig.paper()
        assert config.num_transactions == 1000
        assert config.num_subdatabases == 10
        assert config.records_per_subdb == 1000
        assert config.num_attributes == 10
        assert config.runs == 10
        assert SIGNIFICANCE_LEVEL == 0.01  # 99 % confidence

    def test_quick_preserves_frequency_invariant(self):
        """Mean key frequency (records / domain) stays at the paper's 10."""
        paper = ExperimentConfig.paper()
        quick = ExperimentConfig.quick()
        assert paper.records_per_subdb / paper.domain_size == 10
        assert quick.records_per_subdb / quick.domain_size == 10

    def test_quick_preserves_remote_cost_ratio(self):
        paper = ExperimentConfig.paper()
        quick = ExperimentConfig.quick()
        assert paper.remote_cost / paper.scan_cost == pytest.approx(
            quick.remote_cost / quick.scan_cost
        )

    def test_overrides(self):
        config = ExperimentConfig.quick(runs=5, num_processors=7)
        assert config.runs == 5
        assert config.num_processors == 7


class TestDerived:
    def test_total_records(self):
        assert ExperimentConfig.paper().total_records == 10_000

    def test_scan_cost(self):
        assert ExperimentConfig.paper().scan_cost == 1000.0

    def test_with_helpers_return_new_configs(self):
        base = ExperimentConfig.quick()
        assert base.with_processors(4).num_processors == 4
        assert base.with_replication(0.7).replication_rate == 0.7
        assert base.with_slack_factor(2.0).slack_factor == 2.0
        assert base.num_processors == 10  # unchanged

    def test_seeds_deterministic_and_distinct(self):
        config = ExperimentConfig.quick(runs=4)
        seeds = config.seeds()
        assert len(seeds) == 4
        assert len(set(seeds)) == 4
        assert config.seeds() == seeds


class TestSweeps:
    def test_processor_sweep_matches_paper(self):
        assert PROCESSOR_SWEEP[0] == 2
        assert PROCESSOR_SWEEP[-1] == 10

    def test_replication_sweep_matches_paper(self):
        assert REPLICATION_SWEEP[0] == 0.1
        assert REPLICATION_SWEEP[-1] == 1.0

    def test_slack_factor_sweep_matches_paper(self):
        assert SLACK_FACTOR_SWEEP == (1.0, 2.0, 3.0)


class TestValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_transactions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(replication_rate=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(slack_factor=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(per_vertex_cost=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["slack_factor", "remote_cost", "per_vertex_cost", "offered_load"],
    )
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            ExperimentConfig.quick(**{field: value})

    @pytest.mark.parametrize("kernel", ["vectorized", "auto"])
    def test_only_the_scalar_search_loop_exists(self, kernel):
        """ValueError is what benchmarks/e2e/run.py catches for a gone kernel."""
        with pytest.raises(ValueError, match="scalar"):
            ExperimentConfig(kernel=kernel)

    def test_scalar_kernel_still_constructs(self):
        assert ExperimentConfig.paper(kernel="scalar").kernel == "scalar"

    def test_default_sweep_digest_is_pinned(self):
        """Sweep caches stay valid across PRs unless a PR says otherwise.

        The literal changed once, when the statistics block and ``kernel``
        left the cache key (a run reads neither).
        """
        from repro.experiments.sweep import config_digest

        assert config_digest(ExperimentConfig.quick()) == (
            "45b51d278750f638841ae0650a5c22259ad037f20dfedc2e16b2449bb8d4db78"
        )


def test_production_imports_neither_numpy_nor_the_frozen_reference():
    """The library is dependency-free and the reference loop is test-only."""
    probe = (
        "import sys\n"
        "import repro.experiments, repro.cluster, repro.service\n"
        "print([m for m in ('numpy', 'repro.core.reference') "
        "if m in sys.modules])\n"
    )
    # The child inherits this process's environment, PYTHONPATH included.
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestServiceFields:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.arrival == "burst"
        assert config.offered_load == 1.0
        assert config.admission_policy == "reject-newest"

    def test_with_helpers(self):
        config = ExperimentConfig()
        assert replace(config, arrival="pareto").arrival == "pareto"
        assert config.with_offered_load(1.6).offered_load == 1.6
        assert (
            config.with_admission_policy("least-slack").admission_policy
            == "least-slack"
        )
        # Frozen: the originals are untouched.
        assert config.arrival == "burst"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(arrival="fractal")
        with pytest.raises(ValueError):
            ExperimentConfig(offered_load=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(admission_policy="lifo")

    def test_offered_load_sweep_has_points_astride_capacity(self):
        from repro.experiments.config import OFFERED_LOAD_SWEEP

        assert len(OFFERED_LOAD_SWEEP) >= 4
        assert min(OFFERED_LOAD_SWEEP) < 1.0 < max(OFFERED_LOAD_SWEEP)

    def test_service_fields_are_cache_relevant(self):
        """Two cells differing only in a service field must not share a
        cache entry, or load-curve grids would collapse to one point."""
        from repro.experiments.sweep import config_digest

        base = ExperimentConfig()
        assert config_digest(base) != config_digest(
            base.with_offered_load(1.6)
        )
        assert config_digest(base) != config_digest(
            base.with_admission_policy("least-slack")
        )
        assert config_digest(base) != config_digest(
            replace(base, arrival="diurnal")
        )
