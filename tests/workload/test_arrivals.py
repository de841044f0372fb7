"""Tests for arrival processes."""

import random

import pytest

from repro.workload import (
    ARRIVAL_NAMES,
    BatchedArrival,
    BurstyArrival,
    DiurnalArrival,
    LogNormalArrival,
    ParetoArrival,
    PoissonArrival,
    UniformArrival,
    make_arrival,
)


@pytest.fixture
def rng():
    return random.Random(42)


class TestBursty:
    def test_all_at_once(self, rng):
        times = BurstyArrival().arrival_times(5, rng)
        assert times == [0.0] * 5

    def test_zero_tasks(self, rng):
        assert BurstyArrival().arrival_times(0, rng) == []


class TestPoisson:
    def test_times_sorted_and_positive(self, rng):
        times = PoissonArrival(rate=0.5).arrival_times(100, rng)
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_mean_interarrival_near_rate(self, rng):
        rate = 2.0
        times = PoissonArrival(rate=rate).arrival_times(5000, rng)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrival(rate=0.0)


class TestUniform:
    def test_within_window_and_sorted(self, rng):
        times = UniformArrival(10.0, 20.0).arrival_times(50, rng)
        assert times == sorted(times)
        assert all(10.0 <= t <= 20.0 for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformArrival(5.0, 5.0)


class TestBatched:
    def test_even_split(self, rng):
        times = BatchedArrival(num_batches=2, interval=10.0).arrival_times(
            6, rng
        )
        assert times == [0.0] * 3 + [10.0] * 3

    def test_uneven_split_front_loads(self, rng):
        times = BatchedArrival(num_batches=3, interval=5.0).arrival_times(
            7, rng
        )
        assert times.count(0.0) == 3
        assert times.count(5.0) == 2
        assert times.count(10.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedArrival(num_batches=0, interval=1.0)
        with pytest.raises(ValueError):
            BatchedArrival(num_batches=1, interval=0.0)


class TestDeterminism:
    def test_poisson_reproducible(self):
        a = PoissonArrival(1.0).arrival_times(20, random.Random(7))
        b = PoissonArrival(1.0).arrival_times(20, random.Random(7))
        assert a == b


class TestPareto:
    def test_non_decreasing_and_non_negative(self, rng):
        times = ParetoArrival(rate=1.0).arrival_times(500, rng)
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_mean_gap_calibrated_to_rate(self):
        # Heavy tails need many samples; shape 2.5 keeps variance finite.
        rate = 2.0
        times = ParetoArrival(rate=rate).arrival_times(
            20000, random.Random(3)
        )
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.15)

    def test_heavier_tail_than_poisson(self):
        """The defining property: rare gaps far beyond the exponential."""
        r = random.Random(11)
        pareto = ParetoArrival(rate=1.0).arrival_times(5000, r)
        gaps = [b - a for a, b in zip(pareto, pareto[1:])]
        # An exponential with mean 1 exceeds 20 with p ~ 2e-9; the heavy
        # tail makes such gaps routine in a few thousand draws.
        assert max(gaps) > 20.0

    def test_seeded_determinism(self):
        a = ParetoArrival(rate=1.0).arrival_times(50, random.Random(7))
        b = ParetoArrival(rate=1.0).arrival_times(50, random.Random(7))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoArrival(rate=0.0)
        assert ParetoArrival.SHAPE > 1.0  # finite mean gap


class TestLogNormal:
    def test_non_decreasing_and_non_negative(self, rng):
        times = LogNormalArrival(rate=1.0).arrival_times(500, rng)
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_mean_gap_calibrated_to_rate(self):
        rate = 4.0
        times = LogNormalArrival(rate=rate).arrival_times(
            20000, random.Random(5)
        )
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.1)

    def test_seeded_determinism(self):
        a = LogNormalArrival(rate=2.0).arrival_times(50, random.Random(9))
        b = LogNormalArrival(rate=2.0).arrival_times(50, random.Random(9))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormalArrival(rate=0.0)


class TestDiurnal:
    def test_non_decreasing_and_non_negative(self, rng):
        times = DiurnalArrival(rate=1.0, period=100.0).arrival_times(
            500, rng
        )
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_rate_oscillates_around_mean(self):
        process = DiurnalArrival(rate=2.0, period=100.0)
        swing = 2.0 * process.AMPLITUDE
        assert process.rate_at(25.0) == pytest.approx(2.0 + swing)  # peak
        assert process.rate_at(75.0) == pytest.approx(2.0 - swing)  # trough
        assert process.rate_at(0.0) == pytest.approx(2.0)

    def test_peak_half_denser_than_trough_half(self):
        """More arrivals land in the high-rate half of each cycle."""
        period = 50.0
        times = DiurnalArrival(rate=2.0, period=period).arrival_times(
            4000, random.Random(13)
        )
        peak = sum(1 for t in times if (t % period) < period / 2)
        trough = len(times) - peak
        assert peak > 1.5 * trough

    def test_seeded_determinism(self):
        a = DiurnalArrival(rate=1.0, period=10.0).arrival_times(
            50, random.Random(21)
        )
        b = DiurnalArrival(rate=1.0, period=10.0).arrival_times(
            50, random.Random(21)
        )
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrival(rate=0.0, period=10.0)
        with pytest.raises(ValueError):
            DiurnalArrival(rate=1.0, period=0.0)
        assert 0.0 <= DiurnalArrival.AMPLITUDE < 1.0  # rate stays positive


class TestMakeArrival:
    @pytest.mark.parametrize("name", ARRIVAL_NAMES)
    def test_every_name_builds_and_behaves(self, name):
        process = make_arrival(name, rate=1.0, horizon=50.0)
        times = process.arrival_times(40, random.Random(1))
        assert len(times) == 40
        assert times == sorted(times)
        assert all(t >= 0 for t in times)
        replay = make_arrival(name, rate=1.0, horizon=50.0).arrival_times(
            40, random.Random(1)
        )
        assert times == replay

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_arrival("fractal", rate=1.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            make_arrival("poisson", rate=0.0)
