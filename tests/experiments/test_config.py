"""Tests for experiment configurations."""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.database import DatabaseConfig
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
        database = DatabaseConfig()  # what every workload's rows live in
        assert config.num_transactions == 1000
        assert database.num_subdatabases == 10
        assert config.records_per_subdb == 1000
        assert database.num_attributes == 10
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


def test_the_figures_import_leaves_out_the_trace_analyzer_and_the_pool():
    """Cold start reads only what a simulator run uses.

    The trace analyzer (and the oracle it imports) loads on first use of
    one of its names; ``multiprocessing`` only when a pool is built.
    """
    probe = (
        "import sys\n"
        "import repro.experiments.figures\n"
        "print([m for m in ('repro.observability.analyze', 'multiprocessing') "
        "if m in sys.modules])\n"
        "from repro.observability import attribute_misses\n"
        "print(attribute_misses.__module__)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "repro.observability.analyze"]
