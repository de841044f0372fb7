"""Golden-fixture regression tests for canonical schedules.

Small canonical cells are checked in as JSON under ``tests/fixtures/golden/``;
re-running the same seeds must reproduce them *exactly* — floats are stored as ``repr`` strings, so a single
ULP of drift anywhere in the scheduler fails the diff.  Future performance
PRs diff against these instead of eyeballing schedules.

Regenerate (only when a behaviour change is intended and understood)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_fixtures.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.registry import SCHEDULER_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_once

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

#: (scheduler, processors, replication, seed) — small but non-trivial cells.
#: The historical rtsads/dcols entries predate the scheduler registry and
#: must stay bit-identical; every other registry scheduler gets one cell,
#: derived from SCHEDULER_NAMES so registering a new builtin without a
#: golden fails the coverage test below.
GOLDEN_CELLS = [
    ("rtsads", 3, 0.3, 2024),
    ("rtsads", 8, 0.5, 2024),
    ("dcols", 3, 0.3, 2024),
    ("dcols", 8, 0.5, 2024),
] + [
    (name, 3, 0.3, 2024)
    for name in SCHEDULER_NAMES
    if name not in ("rtsads", "dcols")
]

RECORD_HEADERS = [
    "task_id", "status", "scheduled_phase", "processor",
    "delivered_at", "started_at", "finished_at", "planned_cost",
]
PHASE_HEADERS = [
    "index", "start", "quantum", "time_used", "batch_size", "scheduled",
    "dead_end", "complete", "max_depth", "vertices_generated",
]


def _table(headers, rows, title: str) -> dict:
    """The fixtures' table shape: one object per row, keyed by header."""
    return {
        "title": title,
        "headers": list(headers),
        "rows": [dict(zip(headers, row)) for row in rows],
    }


def _golden_name(scheduler: str, m: int, replication: float, seed: int) -> str:
    return f"{scheduler}_m{m}_R{int(replication * 100)}_s{seed}.json"


def _golden_document(scheduler: str, m: int, replication: float, seed: int) -> str:
    config = (
        ExperimentConfig.quick(num_transactions=40, runs=1)
        .with_processors(m)
        .with_replication(replication)
    )
    result = run_once(config, scheduler, seed)
    record_rows = [
        [
            task_id,
            str(record.status),
            record.scheduled_phase,
            record.processor,
            repr(record.delivered_at),
            repr(record.started_at),
            repr(record.finished_at),
            repr(record.planned_cost),
        ]
        for task_id, record in sorted(result.trace.records.items())
    ]
    phase_rows = [
        [
            phase.index,
            repr(phase.start),
            repr(phase.quantum),
            repr(phase.time_used),
            phase.batch_size,
            phase.scheduled,
            phase.dead_end,
            phase.complete,
            phase.max_depth,
            phase.vertices_generated,
        ]
        for phase in result.phases
    ]
    document = {
        "cell": {
            "scheduler": scheduler,
            "processors": m,
            "replication": replication,
            "seed": seed,
            "transactions": 40,
        },
        "makespan": repr(result.makespan),
        "records": _table(RECORD_HEADERS, record_rows, "task records"),
        "phases": _table(PHASE_HEADERS, phase_rows, "phases"),
    }
    return json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("scheduler,m,replication,seed", GOLDEN_CELLS)
def test_golden_schedule_reproduced_exactly(
    scheduler: str, m: int, replication: float, seed: int
) -> None:
    path = GOLDEN_DIR / _golden_name(scheduler, m, replication, seed)
    regenerated = _golden_document(scheduler, m, replication, seed)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        path.write_text(regenerated + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with REPRO_REGEN_GOLDENS=1"
    )
    stored = path.read_text().rstrip("\n")
    assert regenerated == stored, (
        f"schedule for {path.name} no longer matches its golden fixture; if "
        "this change is intentional, regenerate with REPRO_REGEN_GOLDENS=1 "
        "and explain the behaviour change in the commit message"
    )


def test_goldens_cover_every_registry_scheduler() -> None:
    """Every builtin registry scheduler must have a golden cell."""
    schedulers = {cell[0] for cell in GOLDEN_CELLS}
    assert set(SCHEDULER_NAMES) <= schedulers
