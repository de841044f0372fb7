"""Tests for the statistics module, cross-checked against scipy."""

import math

import pytest
import scipy.stats

from repro.metrics import (
    confidence_interval,
    difference_of_means,
    mean,
    std_dev,
    student_t_cdf,
    student_t_quantile,
    variance,
)
from repro.metrics.stats import SIGNIFICANCE_LEVEL


class TestMoments:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_variance_unbiased(self):
        assert variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == (
            pytest.approx(32.0 / 7.0)
        )

    def test_variance_single_observation(self):
        assert variance([5.0]) == 0.0

    def test_std_dev(self):
        assert std_dev([1.0, 5.0]) == pytest.approx(math.sqrt(8.0))


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 5, 9, 30])
    @pytest.mark.parametrize("t", [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0])
    def test_cdf_matches_scipy(self, df, t):
        assert student_t_cdf(t, df) == pytest.approx(
            scipy.stats.t.cdf(t, df), abs=1e-6
        )

    @pytest.mark.parametrize("df", [2, 9, 30])
    @pytest.mark.parametrize("p", [0.005, 0.05, 0.5, 0.95, 0.995])
    def test_quantile_matches_scipy(self, df, p):
        assert student_t_quantile(p, df) == pytest.approx(
            scipy.stats.t.ppf(p, df), abs=1e-4
        )

    def test_cdf_validation(self):
        with pytest.raises(ValueError):
            student_t_cdf(0.0, 0)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)


class TestConfidenceInterval:
    def test_matches_scipy_99(self):
        values = [82.0, 79.5, 84.1, 80.7, 81.9, 78.8, 83.0, 80.2, 82.5, 81.1]
        ci = confidence_interval(values, confidence=0.99)
        low, high = scipy.stats.t.interval(
            0.99,
            len(values) - 1,
            loc=scipy.stats.tmean(values),
            scale=scipy.stats.sem(values),
        )
        assert ci.low == pytest.approx(low, abs=1e-4)
        assert ci.high == pytest.approx(high, abs=1e-4)

    def test_contains(self):
        ci = confidence_interval([10.0, 12.0, 11.0], confidence=0.95)
        assert ci.contains(ci.mean)
        assert not ci.contains(ci.high + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.0)


class TestDifferenceOfMeans:
    def test_matches_scipy_welch(self):
        a = [68.0, 71.2, 69.5, 70.1, 72.3, 67.8, 70.9, 69.0, 71.5, 70.4]
        b = [52.1, 55.4, 53.3, 54.0, 51.9, 56.2, 53.8, 52.7, 54.9, 53.1]
        result = difference_of_means(a, b)
        t_stat, p_value = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert result.t_statistic == pytest.approx(t_stat, abs=1e-6)
        assert result.p_value == pytest.approx(p_value, abs=1e-6)
        assert result.significant

    def test_identical_samples_not_significant(self):
        a = [10.0, 10.0, 10.0]
        result = difference_of_means(a, list(a))
        assert result.p_value == 1.0
        assert not result.significant

    def test_zero_variance_different_means_significant(self):
        result = difference_of_means([10.0, 10.0], [20.0, 20.0])
        assert result.significant
        assert result.p_value == 0.0

    def test_significance_level_respected(self):
        a = [10.0, 11.0, 10.5, 9.9]
        b = [10.6, 11.2, 10.1, 10.9]
        weak = difference_of_means(a, b)
        assert weak.p_value >= SIGNIFICANCE_LEVEL
        assert not weak.significant

    def test_mean_difference_sign(self):
        result = difference_of_means([5.0, 5.2], [3.0, 3.1])
        assert result.mean_difference > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            difference_of_means([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            difference_of_means([1.0, 2.0], [1.0])
