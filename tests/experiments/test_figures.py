"""Tests for the figure-reproduction harness (small configurations)."""

from dataclasses import replace

import pytest

from repro.experiments import (
    ExperimentConfig,
    ablation_cost,
    ablation_memory,
    ablation_quantum,
    ablation_representation,
    figure5,
    figure6,
    laxity_sweep,
    overhead_table,
    shard_curve,
)

TINY = ExperimentConfig.quick(num_transactions=40, runs=2, num_processors=4)


class TestFigure5:
    def test_structure(self):
        result = figure5(TINY, processors=(2, 4))
        assert result.figure.x_values == [2, 4]
        labels = [s.label for s in result.figure.series]
        assert labels == ["RT-SADS", "D-COLS"]
        assert len(result.significance) == 2

    def test_render_includes_table_and_chart(self):
        result = figure5(TINY, processors=(2, 3))
        text = result.render()
        assert "Figure 5" in text
        assert "RT-SADS" in text
        assert "#" in text  # chart bars

    def test_cells_keyed_by_scheduler_and_x(self):
        result = figure5(TINY, processors=(2,))
        assert ("rtsads", 2) in result.cells
        assert ("dcols", 2) in result.cells


class TestFigure6:
    def test_structure(self):
        result = figure6(TINY, replication_rates=(0.25, 1.0))
        assert result.figure.x_values == [0.25, 1.0]
        assert "Figure 6" in result.render()


class TestLaxitySweep:
    def test_one_sweep_per_slack_factor(self):
        result = laxity_sweep(TINY, processors=(2, 4))
        assert set(result.sweeps) == {1.0, 2.0, 3.0}
        text = result.render()
        assert "SF=1" in text and "SF=3" in text

    def test_looser_deadlines_never_hurt_on_average(self):
        result = laxity_sweep(
            replace(TINY, scheduler="rtsads"), processors=(4,)
        )
        tight = result.sweeps[1.0].figure.series[0].values[0]
        loose = result.sweeps[3.0].figure.series[0].values[0]
        assert loose >= tight


class TestShardCurve:
    def test_structure(self):
        result = shard_curve(TINY, processors=(2, 4), domains=(1, 2))
        assert result.figure.x_values == [2, 4]
        labels = [s.label for s in result.figure.series]
        assert labels == ["domains=1", "domains=2"]
        assert ("domains=1", 2) in result.cells
        assert ("domains=2", 4) in result.cells
        assert any("partition policy" in note for note in result.figure.notes)
        # runs >= 2 and two domain counts: the significance report exists.
        assert len(result.significance) == 2

    def test_render_mentions_the_architecture_axis(self):
        result = shard_curve(TINY, processors=(2,), domains=(1, 2))
        text = result.render()
        assert "Shard curve" in text
        assert "domains=2" in text

    def test_domains_exceeding_smallest_machine_rejected(self):
        with pytest.raises(ValueError, match="cannot partition"):
            shard_curve(TINY, processors=(2, 8), domains=(1, 4))

    def test_domain_counts_deduplicated_and_sorted(self):
        result = shard_curve(TINY, processors=(2,), domains=(2, 1, 2))
        labels = [s.label for s in result.figure.series]
        assert labels == ["domains=1", "domains=2"]


class TestOverhead:
    def test_rows_and_distortion(self):
        result = overhead_table(TINY)
        assert len(result.rows) == 2
        assert result.measured_per_vertex_seconds > 0
        text = result.render()
        assert "Scheduling cost" in text
        assert "distortion" in text


class TestAblations:
    def test_quantum_ablation_covers_policies(self):
        result = ablation_quantum(TINY)
        labels = [row[0] for row in result.rows]
        assert any("self-adjusting" in label for label in labels)
        assert any("fixed tiny" in label for label in labels)
        assert any("fixed long" in label for label in labels)
        assert len(result.rows) == 6

    def test_cost_ablation_covers_evaluators(self):
        result = ablation_cost(TINY)
        labels = [row[0] for row in result.rows]
        assert "load_balancing" in labels and "fifo" in labels

    def test_memory_ablation(self):
        result = ablation_memory(TINY, cl_bounds=(4, None))
        labels = [row[0] for row in result.rows]
        assert labels == ["4", "unbounded"]
        assert "memory" in result.render()
        # Depth-first phases barely revisit old candidates.
        assert result.rows[0][1] >= result.rows[1][1] - 10.0

    def test_representation_ablation(self):
        result = ablation_representation(TINY)
        labels = [row[0] for row in result.rows]
        assert labels == ["RT-SADS", "D-COLS"]
        text = result.render()
        assert "dead-end" in text
