"""Statistics for experiment aggregation.

The paper runs each experiment 10 times, plots the means, and reports
"two-tailed difference-of-means tests ... a confidence interval of 99% at a
0.01 significance level".  This module implements exactly that machinery —
means, confidence intervals, and a Welch two-tailed difference-of-means
test — from scratch (no scipy dependency), with the Student-t quantiles
needed for small samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: The paper's significance level (Section 5.1); its confidence intervals
#: are at the complementary 99 %.
SIGNIFICANCE_LEVEL = 0.01


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (n-1 denominator)."""
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (len(values) - 1)


def std_dev(values: Sequence[float]) -> float:
    return math.sqrt(variance(values))


def _log_gamma(x: float) -> float:
    """Lanczos approximation of ln(Gamma(x)) for x > 0."""
    coefficients = (
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    )
    if x < 0.5:
        # Reflection formula.
        return math.log(math.pi / math.sin(math.pi * x)) - _log_gamma(1.0 - x)
    x -= 1.0
    a = 0.99999999999980993
    t = x + 7.5
    for i, coefficient in enumerate(coefficients):
        a += coefficient / (x + i + 1)
    return 0.5 * math.log(2 * math.pi) + (x + 0.5) * math.log(t) - t + math.log(a)


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # The continued fraction converges fast only for x below the mode;
    # otherwise use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, 1.0 - x)
    log_beta = _log_gamma(a + b) - _log_gamma(a) - _log_gamma(b)
    front = math.exp(log_beta + a * math.log(x) + b * math.log(1.0 - x)) / a
    # Lentz's algorithm for the continued fraction.
    tiny = 1e-30
    f, c, d = 1.0, 1.0, 0.0
    for i in range(200):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = (m * (b - m) * x) / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -((a + m) * (a + b + m) * x) / (
                (a + 2 * m) * (a + 2 * m + 1)
            )
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + numerator / (c if abs(c) >= tiny else tiny)
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    probability = 0.5 * _incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - probability if t > 0 else probability


def student_t_quantile(p: float, df: float) -> float:
    """Inverse CDF by bisection (robust; speed is irrelevant here)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def confidence_interval(
    values: Sequence[float], confidence: float = 1.0 - SIGNIFICANCE_LEVEL
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of a small sample."""
    if len(values) < 2:
        raise ValueError("confidence interval needs at least 2 observations")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(values)
    m = mean(values)
    s = std_dev(values)
    t = student_t_quantile(1.0 - (1.0 - confidence) / 2.0, n - 1)
    return ConfidenceInterval(
        mean=m,
        half_width=t * s / math.sqrt(n),
        confidence=confidence,
        n=n,
    )


@dataclass(frozen=True)
class DifferenceOfMeansResult:
    """Outcome of the two-tailed Welch difference-of-means test."""

    mean_difference: float
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    significant: bool


def difference_of_means(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> DifferenceOfMeansResult:
    """Two-tailed Welch t-test on the difference of two sample means.

    This is the paper's statistical check (Section 5.1) at its
    :data:`SIGNIFICANCE_LEVEL`.  Welch's form is used because the two
    algorithms' run-to-run variances need not match.
    """
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    mean_a, mean_b = mean(sample_a), mean(sample_b)
    var_a, var_b = variance(sample_a), variance(sample_b)
    na, nb = len(sample_a), len(sample_b)
    se_sq = var_a / na + var_b / nb
    if se_sq == 0.0:
        identical = mean_a == mean_b
        return DifferenceOfMeansResult(
            mean_difference=mean_a - mean_b,
            t_statistic=0.0 if identical else math.inf,
            degrees_of_freedom=float(na + nb - 2),
            p_value=1.0 if identical else 0.0,
            significant=not identical,
        )
    t_stat = (mean_a - mean_b) / math.sqrt(se_sq)
    df = se_sq**2 / (
        (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
    )
    p_value = 2.0 * (1.0 - student_t_cdf(abs(t_stat), df))
    return DifferenceOfMeansResult(
        mean_difference=mean_a - mean_b,
        t_statistic=t_stat,
        degrees_of_freedom=df,
        p_value=p_value,
        significant=p_value < SIGNIFICANCE_LEVEL,
    )
