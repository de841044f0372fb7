"""Metrics: deadline compliance, statistics (CI, significance), reporting."""

from .compliance import hit_ratio_by_tag, percent, ratio
from .export import report_to_json
from .regret import summarize_regret
from .reporting import (
    FigureData,
    Series,
    ascii_chart,
    comparison_summary,
    format_figure,
    format_gantt,
    format_table,
)
from .stats import (
    ConfidenceInterval,
    DifferenceOfMeansResult,
    confidence_interval,
    difference_of_means,
    mean,
    std_dev,
    student_t_cdf,
    student_t_quantile,
    variance,
)

__all__ = [
    "ConfidenceInterval",
    "DifferenceOfMeansResult",
    "FigureData",
    "Series",
    "ascii_chart",
    "comparison_summary",
    "confidence_interval",
    "difference_of_means",
    "format_figure",
    "format_gantt",
    "format_table",
    "hit_ratio_by_tag",
    "mean",
    "percent",
    "ratio",
    "report_to_json",
    "std_dev",
    "student_t_cdf",
    "student_t_quantile",
    "summarize_regret",
    "variance",
]
