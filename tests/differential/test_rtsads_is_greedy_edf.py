"""RT-SADS makes Greedy-EDF's decisions: the same task records, cell by cell.

Two repo-side mechanisms turn RT-SADS's search into one greedy descent
(``repro.core.rtsads``'s docstring gives the argument): the
assignment-oriented expander prunes a task that fits on no processor
instead of dead-ending on it, and a vertex with no successors is maximal
and ends the phase.  The first descent therefore is the whole search, and
because ``CE`` is strictly increasing in the new assignment's end its best
child is the minimum-completion-time processor, Greedy-EDF's pick.

This suite pins that law on the conformance grid (every workload of
``tests/schedulers/workloads.py`` at seeds 0-3 and m in {3, 4, 8}) and on
the quick-scale ``run_once`` cell at m = 4 over one and two scheduling
domains: every task's status, processor, phase, delivery, start and finish
times and guarantee agree.  A change to either scheduler's pick moves some
record and fails here.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_once
from repro.simulator import simulate

from ..schedulers.test_conformance import build
from ..schedulers.workloads import WORKLOADS

SEEDS = (0, 1, 2, 3)
PROCESSORS = (3, 4, 8)
QUICK = ExperimentConfig.quick(runs=1).with_processors(4)
QUICK_SEED = 1998


def decisions(report) -> dict:
    """Task id -> every decision its record carries."""
    return {
        task_id: (
            record.status,
            record.processor,
            record.scheduled_phase,
            record.delivered_at,
            record.started_at,
            record.finished_at,
            record.guaranteed,
        )
        for task_id, record in report.trace.records.items()
    }


@pytest.mark.parametrize("m", PROCESSORS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_conformance_cells_make_the_same_decisions(workload, seed, m):
    tasks = WORKLOADS[workload](seed, num_processors=m)
    rtsads, greedy = (
        decisions(simulate(build(name), list(tasks), num_workers=m))
        for name in ("rtsads", "greedy_edf")
    )
    assert len(rtsads) == len(tasks)
    assert rtsads == greedy


@pytest.mark.parametrize("domains", (1, 2))
def test_the_quick_cell_makes_the_same_decisions(domains):
    config = QUICK.with_domains(domains)
    rtsads, greedy = (
        run_once(config, name, QUICK_SEED) for name in ("rtsads", "greedy_edf")
    )
    assert rtsads.deadline_hits > 0
    assert decisions(rtsads) == decisions(greedy)
