"""Regret aggregation: compliance measured against the oracle's ceiling.

One run's ``regret`` section (see
:func:`repro.analysis.schedulability.regret_section`) describes a single
seed; sweeps need the per-cell view — how many repetitions were provably
feasible, how many misses the ideal scheduler would have avoided, and the
mean compliance-vs-bound.  These helpers aggregate the per-run sections
without reaching back into the oracle, so they work identically on live
reports and on sweep cell records.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def summarize_regret(sections: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-run regret sections into one per-cell summary.

    Empty or oracle-less inputs produce a zeroed summary with
    ``verdicts == {}`` so exports stay schema-stable.
    """
    populated: List[Dict[str, object]] = [s for s in sections if s]
    verdicts: Dict[str, int] = {}
    for section in populated:
        verdict = str(section.get("verdict", "unknown"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    regret_misses = sum(
        int(s.get("regret_misses", 0)) for s in populated
    )
    feasible = [
        s for s in populated if s.get("verdict") == "feasible"
    ]
    ratios = [
        float(s.get("compliance_vs_bound", 1.0)) for s in populated
    ]
    return {
        "runs": len(populated),
        "verdicts": verdicts,
        "regret_misses": regret_misses,
        "regret_misses_on_feasible": sum(
            int(s.get("regret_misses", 0)) for s in feasible
        ),
        "mean_compliance_vs_bound": (
            sum(ratios) / len(ratios) if ratios else 1.0
        ),
    }
