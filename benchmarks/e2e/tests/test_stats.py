"""The percentile rule and the per-pass estimate."""

import pytest

from stats import (
    highest_supported_percentile,
    median,
    per_pass,
    percentile,
    summarize,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "samples, expected",
    [
        (10, None),     # nothing beyond the median is supported
        (39, None),     # p75 would have 9 beyond it
        (40, 75.0),     # 10 beyond p75
        (100, 90.0),    # 10 beyond p90, 1 beyond p99
        (999, 90.0),    # 9 beyond p99
        (1000, 99.0),   # 10 beyond p99, 1 beyond p99.9
        (10000, 99.9),
    ],
)
def test_highest_percentile_needs_ten_samples_beyond_it(samples, expected):
    assert highest_supported_percentile(samples) == expected


def test_summarize_states_the_sample_count_and_the_supported_tail():
    summary = summarize([float(i) for i in range(1000)])
    assert summary["n"] == 1000
    assert summary["p50"] == median(range(1000))
    assert "p99" in summary and "p99.9" not in summary
    assert set(summarize([1.0, 2.0, 3.0])) == {"n", "p50"}


def test_per_pass_sums_each_unit_kinds_median():
    # The last pass was cut short: 'a' ran three times, 'b' twice.
    assert per_pass({"a": [1.0, 3.0, 2.0], "b": [10.0, 20.0]}) == 2.0 + 15.0
