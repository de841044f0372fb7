"""Offline analysis of workloads and runs: schedulability, regret.

The oracles here never look at a scheduler — they bound what *any*
scheduler could have achieved for a workload, turning raw compliance
numbers into regret analyses.  See :mod:`repro.analysis.schedulability`.
"""

from .schedulability import (
    EPSILON,
    EXACT_TASK_LIMIT,
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    SchedulabilityVerdict,
    analyze_tasks,
    analyze_triples,
    exact_feasibility,
    regret_section,
    unknown_regret_section,
)

__all__ = [
    "EPSILON",
    "EXACT_TASK_LIMIT",
    "FEASIBLE",
    "INFEASIBLE",
    "UNKNOWN",
    "SchedulabilityVerdict",
    "analyze_tasks",
    "analyze_triples",
    "exact_feasibility",
    "regret_section",
    "unknown_regret_section",
]
