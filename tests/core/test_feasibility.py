"""Tests for the RT-SADS feasibility machinery (paper Figure 4)."""

import pytest

from repro.core import (
    is_feasible_against_bound,
    is_feasible_assignment,
    make_task,
    phase_end_bound,
    projected_offsets,
    remaining_quantum,
    schedule_is_deadline_safe,
)


class TestRemainingQuantum:
    def test_full_at_phase_start(self):
        assert remaining_quantum(10.0, 5.0, now=10.0) == 5.0

    def test_decreases_with_time(self):
        assert remaining_quantum(10.0, 5.0, now=12.0) == 3.0

    def test_clamped_at_zero(self):
        assert remaining_quantum(10.0, 5.0, now=20.0) == 0.0


class TestFeasibilityTest:
    def test_literal_figure4_form(self):
        task = make_task(0, processing_time=10.0, deadline=100.0)
        # t_c + RQ_s + se <= d:  50 + 10 + 40 <= 100
        assert is_feasible_assignment(
            task, scheduled_end=40.0, now=50.0, phase_start=50.0, quantum=10.0
        )
        assert not is_feasible_assignment(
            task, scheduled_end=41.0, now=50.0, phase_start=50.0, quantum=10.0
        )

    def test_invariant_under_elapsed_phase_time(self):
        """t_c + RQ_s is constant during a phase, so the verdict is too."""
        task = make_task(0, processing_time=10.0, deadline=100.0)
        verdicts = [
            is_feasible_assignment(
                task, scheduled_end=40.0, now=now, phase_start=50.0, quantum=10.0
            )
            for now in (50.0, 53.0, 59.9)
        ]
        assert verdicts == [True, True, True]

    def test_bound_form_equivalence(self):
        task = make_task(0, processing_time=10.0, deadline=100.0)
        bound = phase_end_bound(50.0, 10.0)
        for se in (39.0, 40.0, 40.5, 41.0):
            assert is_feasible_against_bound(task, se, bound) == (
                is_feasible_assignment(
                    task, se, now=55.0, phase_start=50.0, quantum=10.0
                )
            )

    def test_boundary_is_feasible(self):
        task = make_task(0, processing_time=10.0, deadline=100.0)
        assert is_feasible_against_bound(task, 40.0, 60.0)  # exactly d

    def test_epsilon_tolerance(self):
        task = make_task(0, processing_time=10.0, deadline=100.0)
        assert is_feasible_against_bound(task, 40.0 + 1e-12, 60.0)


class TestProjectedOffsets:
    def test_drains_by_quantum(self):
        assert projected_offsets([100.0, 30.0], quantum=40.0) == (60.0, 0.0)

    def test_floors_at_zero(self):
        assert projected_offsets([10.0], quantum=40.0) == (0.0,)

    def test_zero_quantum_identity(self):
        assert projected_offsets([5.0, 7.0], quantum=0.0) == (5.0, 7.0)


class TestDeadlineSafety:
    def test_all_on_time(self):
        tasks = {
            0: make_task(0, processing_time=1.0, deadline=10.0),
            1: make_task(1, processing_time=1.0, deadline=20.0),
        }
        assert schedule_is_deadline_safe({0: 10.0, 1: 15.0}, tasks)

    def test_detects_late_finish(self):
        tasks = {0: make_task(0, processing_time=1.0, deadline=10.0)}
        assert not schedule_is_deadline_safe({0: 10.5}, tasks)


class TestOneTolerance:
    """The live re-checks mirror Figure 4's test, so they share its slop."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.cluster.master",  # dispatch-time re-check
            "repro.sharding.migration",  # can_guarantee
            "repro.service.admission",  # admission policies
        ],
    )
    def test_live_checks_use_the_core_epsilon(self, module):
        import importlib

        from repro.core import feasibility

        assert importlib.import_module(module).EPSILON is feasibility.EPSILON
