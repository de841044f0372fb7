"""Sample summaries shared by the benchmark's workloads and its reports."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Percentiles the reports choose from, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.0, 90.0, 75.0)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of a sample."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    # In whole per-mille: 99.9 / 100 * 1000 is not exactly 999 in floats.
    rank = max(1, -(-len(ordered) * round(q * 10) // 1000))
    return float(ordered[rank - 1])


def highest_supported_percentile(samples: int) -> Optional[float]:
    """Highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the lowest candidate has fewer: the sample then
    supports a median and nothing else.
    """
    for q in CANDIDATE_PERCENTILES:
        # In whole per-mille, so that 0.1 % of 10 000 is exactly 10.
        if samples * round((100.0 - q) * 10) // 1000 >= MIN_SAMPLES_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the highest supported percentile and the sample count."""
    summary = {"n": len(values), "p50": median(values)}
    tail = highest_supported_percentile(len(values))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary


def per_pass(samples_by_unit: Dict[str, Sequence[float]]) -> float:
    """Seconds one pass over a workload's units takes.

    A timed run stops on the clock, so the last pass may be partial and
    unit kinds can have unequal sample counts; summing each kind's median
    keeps the estimate that of one whole pass.
    """
    return sum(median(samples) for samples in samples_by_unit.values())
