"""The ordered ``task``-event stream and the report, pinned per cell.

One digest per ``scheduler x k x variant`` cell over the simulator:
the sha256 of every ``task`` event, in order, exactly as
:class:`~repro.observability.JsonlSink` writes it, next to
``RunReport.as_dict()`` (``wall_seconds`` dropped, the phase list
digested).  Recorded before the task ledger replaced the per-backend
records, so a refactor of who writes a transition cannot move one.

``surrendered`` events are left out of the digest and counted instead:
a requeue after a processor failure emits one each, so their number is
the report's ``reschedules`` in every cell.

Regenerate (only for an intended, understood behaviour change)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_task_event_goldens.py -q
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_once
from repro.observability import Instrumentation, JsonlSink, instrumented
from repro.runtime.sim import SimBackend
from repro.simulator import ScaledExecution

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "fixtures" / "golden" / "task_events.json"
)
SEED = 7
SCHEDULERS = ("rtsads", "dcols", "greedy_edf")
DOMAINS = (1, 2)
#: variant name -> the ``SimBackend`` keywords of the cell (P1 dies at
#: t=150, with work queued behind its running task in every cell).
VARIANTS = {
    "plain": {},
    "failure": {"failures": [(150.0, 1)]},
    "scaled": {"execution_model": lambda db, txns: ScaledExecution(0.5)},
}
CELLS = [
    (scheduler, k, variant)
    for scheduler in SCHEDULERS
    for k in DOMAINS
    for variant in VARIANTS
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cell(scheduler: str, k: int, variant: str):
    """(task-event JSONL lines, report) of one traced cell."""
    config = ExperimentConfig.quick(
        num_transactions=60, num_processors=4
    ).with_domains(k)
    stream = io.StringIO()
    with instrumented(Instrumentation(sink=JsonlSink(stream))):
        report = run_once(
            config, scheduler, SEED, backend=SimBackend(**VARIANTS[variant])
        )
    lines = [
        line
        for line in stream.getvalue().splitlines()
        if json.loads(line)["event"] == "task"
    ]
    return lines, report


def cell_document(scheduler: str, k: int, variant: str):
    """(fixture entry, number of ``surrendered`` events, report)."""
    lines, report = run_cell(scheduler, k, variant)
    kept = [
        line for line in lines
        if json.loads(line)["transition"] != "surrendered"
    ]
    exported = report.as_dict()
    del exported["wall_seconds"]
    exported["phases"] = _sha256(json.dumps(exported["phases"]))
    document = {
        "task_events": len(kept),
        "task_events_sha256": _sha256("\n".join(kept)),
        "report": exported,
    }
    return document, len(lines) - len(kept), report


@pytest.mark.parametrize("scheduler,k,variant", CELLS)
def test_task_events_and_report_reproduced(scheduler, k, variant):
    key = f"{scheduler}/k{k}/{variant}"
    document, surrendered, report = cell_document(scheduler, k, variant)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        stored[key] = document
        GOLDEN.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {key}")
    assert document == json.loads(GOLDEN.read_text())[key]
    # The failure variant must exercise the requeue path it pins, and
    # every requeue is one ``surrendered`` event.
    assert (report.reschedules > 0) == (variant == "failure")
    assert surrendered == report.reschedules
