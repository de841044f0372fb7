"""Smoke tests asserting the paper's qualitative result shapes.

These use reduced configurations (fewer transactions/runs) but assert the
*direction* of every claim the paper's evaluation makes.  Thresholds are
deliberately loose — they guard the phenomenon, not the exact numbers.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    ablation_cost,
    ablation_interconnect,
    ablation_memory,
    ablation_quantum,
    ablation_representation,
    extension_failures,
    extension_load_sweep,
    extension_reclaiming,
    extension_write_mix,
    run_cell,
)

BASE = ExperimentConfig.quick(runs=2)


@pytest.fixture(scope="module")
def sweep_cells():
    """Hit percentages for both algorithms at m in {2, 6, 10}."""
    cells = {}
    for m in (2, 6, 10):
        for name in ("rtsads", "dcols"):
            cells[(name, m)] = run_cell(BASE.with_processors(m), name)
    return cells


class TestFigure5Shape(object):
    def test_rtsads_scales_up(self, sweep_cells):
        """RT-SADS increases deadline compliance as processors are added."""
        series = [
            sweep_cells[("rtsads", m)].mean_hit_percent for m in (2, 6, 10)
        ]
        assert series[0] < series[1] < series[2]
        assert series[2] - series[0] > 20.0  # substantial gain

    def test_rtsads_dominates_dcols_at_scale(self, sweep_cells):
        for m in (6, 10):
            assert (
                sweep_cells[("rtsads", m)].mean_hit_percent
                > sweep_cells[("dcols", m)].mean_hit_percent
            )

    def test_gap_grows_with_processors(self, sweep_cells):
        """The paper: RT-SADS outperforms by more as m increases."""
        gap_small = (
            sweep_cells[("rtsads", 2)].mean_hit_percent
            - sweep_cells[("dcols", 2)].mean_hit_percent
        )
        gap_large = (
            sweep_cells[("rtsads", 10)].mean_hit_percent
            - sweep_cells[("dcols", 10)].mean_hit_percent
        )
        assert gap_large > gap_small

    def test_dcols_dead_ends_dominate(self, sweep_cells):
        """Section 3 conjecture: the sequence representation dead-ends."""
        assert sweep_cells[("dcols", 10)].mean_dead_end_rate > 0.5
        assert sweep_cells[("rtsads", 10)].mean_dead_end_rate < 0.5


class TestFigure6Shape:
    @pytest.fixture(scope="class")
    def replication_cells(self):
        cells = {}
        for rate in (0.1, 1.0):
            for name in ("rtsads", "dcols"):
                cells[(name, rate)] = run_cell(
                    BASE.with_replication(rate), name
                )
        return cells

    def test_dcols_improves_with_replication(self, replication_cells):
        assert (
            replication_cells[("dcols", 1.0)].mean_hit_percent
            > replication_cells[("dcols", 0.1)].mean_hit_percent
        )

    def test_rtsads_above_dcols_at_every_rate(self, replication_cells):
        for rate in (0.1, 1.0):
            assert (
                replication_cells[("rtsads", rate)].mean_hit_percent
                >= replication_cells[("dcols", rate)].mean_hit_percent
            )

    def test_rtsads_robust_to_low_replication(self, replication_cells):
        """RT-SADS degrades far less than D-COLS when replication drops."""
        rtsads_drop = (
            replication_cells[("rtsads", 1.0)].mean_hit_percent
            - replication_cells[("rtsads", 0.1)].mean_hit_percent
        )
        dcols_drop = (
            replication_cells[("dcols", 1.0)].mean_hit_percent
            - replication_cells[("dcols", 0.1)].mean_hit_percent
        )
        assert rtsads_drop < dcols_drop


#: The scale the ablation and extension tables' shape checks run at.
TABLE_SCALE = ExperimentConfig.quick(num_transactions=150, runs=3)


@pytest.mark.slow
class TestTableShapes:
    """The claim each ablation / extension table exists to show (DESIGN.md
    Section 4 indexes them by experiment id)."""

    def test_a1_adaptive_quantum_beats_the_fixed_extremes(self):
        result = ablation_quantum(TABLE_SCALE)
        by_label = {row[0]: row[1] for row in result.rows}
        adaptive = by_label["self-adjusting (paper)"]
        tiny = next(
            v for k, v in by_label.items() if k.startswith("fixed tiny")
        )
        long_ = next(
            v for k, v in by_label.items() if k.startswith("fixed long")
        )
        # The adaptive criterion needs no tuning and must clearly beat both
        # degenerate fixed extremes: too-short quanta starve the search,
        # too-long quanta push the feasibility bound out until waiting
        # tasks expire.
        assert adaptive > tiny + 5.0
        assert adaptive > long_ + 5.0
        # ... and it must track the best policy of the table closely.
        assert adaptive >= max(by_label.values()) - 12.0

    def test_a2_load_balancing_spreads_work(self):
        result = ablation_cost(TABLE_SCALE)
        by_label = {row[0]: row for row in result.rows}
        load_balancing = by_label["load_balancing"]
        fifo = by_label["fifo"]
        # The informed evaluators must not lose to the no-heuristic baseline.
        assert load_balancing[1] >= fifo[1] - 2.0
        # Load balancing must actually spread work across processors.
        assert load_balancing[2] >= fifo[2] - 1e-9

    def test_a3_sequence_representation_dead_ends_shallow(self):
        result = ablation_representation(TABLE_SCALE)
        rows = {row[0]: row for row in result.rows}
        rtsads, dcols = rows["RT-SADS"], rows["D-COLS"]
        # hit ratio: assignment-oriented wins.
        assert rtsads[1] > dcols[1]
        # dead-end rate: the sequence representation dead-ends overwhelmingly.
        assert dcols[2] > rtsads[2]
        # schedule depth per phase: assignment-oriented goes deeper.
        assert rtsads[3] > dcols[3]

    def test_a4_conclusion_survives_store_and_forward_routing(self):
        result = ablation_interconnect(TABLE_SCALE)
        for label, rtsads, dcols in result.rows:
            assert rtsads >= dcols, f"RT-SADS must dominate under {label!r}"

    def test_a5_a_tiny_candidate_list_is_nearly_free(self):
        result = ablation_memory(TABLE_SCALE, cl_bounds=(8, 256, None))
        by_label = {row[0]: row[1] for row in result.rows}
        # A tiny CL must not cost more than a few points of compliance.
        assert by_label["8"] >= by_label["unbounded"] - 5.0

    def test_x1_reclaiming_never_hurts_and_shortens_the_makespan(self):
        result = extension_reclaiming(TABLE_SCALE)
        rows = {row[0]: row for row in result.rows}
        worst = rows["worst-case (paper)"]
        scaled = rows["scaled 50%"]
        # Reclaiming must never hurt compliance and must shorten the makespan.
        assert scaled[1] >= worst[1] - 1e-9
        assert scaled[3] < worst[3]
        assert worst[2] == 0.0  # no reclaimed time without early completion
        assert scaled[2] > 0.0

    def test_x2_compliance_falls_as_load_crosses_capacity(self):
        result = extension_load_sweep(
            TABLE_SCALE, load_factors=(0.4, 0.8, 1.2, 1.6)
        )
        rtsads = [row[1] for row in result.rows]
        dcols = [row[2] for row in result.rows]
        # Compliance falls as offered load rises past capacity.
        assert rtsads[0] > rtsads[-1]
        # RT-SADS stays above D-COLS at every load level.
        assert all(r >= d for r, d in zip(rtsads, dcols))
        # Below capacity RT-SADS keeps compliance high.
        assert rtsads[0] > 90.0

    def test_x3_rtsads_dominates_at_every_write_mix(self):
        result = extension_write_mix(
            TABLE_SCALE, write_fractions=(0.0, 0.2, 0.5)
        )
        for fraction, rtsads, dcols in result.rows:
            assert rtsads >= dcols, (
                f"RT-SADS must dominate at write fraction {fraction}"
            )

    def test_x4_crashes_degrade_gracefully(self):
        failure_counts = (0, 1, 3)
        result = extension_failures(
            TABLE_SCALE, failure_counts=failure_counts
        )
        rtsads = [row[1] for row in result.rows]
        dcols = [row[2] for row in result.rows]
        # Compliance never rises with more crashes and never collapses.
        assert all(a >= b - 1.0 for a, b in zip(rtsads, rtsads[1:]))
        lost_fraction = failure_counts[-1] / TABLE_SCALE.num_processors
        assert rtsads[-1] >= rtsads[0] * (1.0 - 2.0 * lost_fraction)
        # RT-SADS routes around failures at least as well as D-COLS.
        assert all(r >= d for r, d in zip(rtsads, dcols))
