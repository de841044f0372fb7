"""Deadline-compliance metrics (the paper's performance measures).

*Deadline compliance* is the percentage of tasks that complete by their
deadline; *scalability* is the ability to increase compliance as processors
are added.  This module holds the one division both reduce to, plus the
per-class breakdown the examples print.

This is the *base* metrics layer: every compliance-style ratio in the
codebase — :attr:`~repro.runtime.report.RunReport.hit_ratio`,
``guarantee_ratio`` — bottoms out in :func:`ratio` here, so the zero-task
guard and the division live in exactly one place.  It imports nothing
from the runtime layers (they import it).
"""

from __future__ import annotations

from typing import Dict


def ratio(numerator: int, denominator: int) -> float:
    """The single division behind every compliance-style ratio.

    A zero (or negative) denominator yields 0.0 — an empty run complied
    with nothing rather than raising mid-report.
    """
    if denominator <= 0:
        return 0.0
    return numerator / denominator


def percent(numerator: int, denominator: int) -> float:
    """:func:`ratio` scaled to the paper's percentage axes."""
    return 100.0 * ratio(numerator, denominator)


def hit_ratio_by_tag(trace: "TaskLedger") -> Dict[str, float]:
    """Deadline hit ratio split by task tag (e.g. 'indexed' vs 'scan')."""
    totals: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    for record in trace.records.values():
        tag = record.task.tag or "untagged"
        totals[tag] = totals.get(tag, 0) + 1
        if record.met_deadline:
            hits[tag] = hits.get(tag, 0) + 1
    return {tag: hits.get(tag, 0) / total for tag, total in totals.items()}
