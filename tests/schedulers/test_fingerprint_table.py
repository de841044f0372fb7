"""Pinned decisions of every registry scheduler, as one digest table.

``tests/fixtures/golden/scheduler_fingerprints.json`` maps a cell name to
the sha256 of :func:`tests.differential.harness.simulation_fingerprint`
(guarantee set, per-phase trace, makespan, floats at full ``repr``
precision) for every builtin scheduler on every conformance workload at
seeds 0-3 and m in {3, 4, 8}, plus one quick-scale ``run_once`` cell per
scheduler at ``domains=1`` and ``domains=2``.  It was written at the commit
*before* the schedulers were collapsed onto one phase frame, so a refactor
of the phase bodies that moves a single decision anywhere in that grid
fails here by cell name.

Regenerate (only when a behaviour change is intended and understood)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/schedulers/test_fingerprint_table.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.registry import SCHEDULER_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_once
from repro.simulator import simulate

from ..differential.harness import simulation_fingerprint
from .test_conformance import build
from .workloads import WORKLOADS

TABLE = (
    Path(__file__).resolve().parent.parent
    / "fixtures" / "golden" / "scheduler_fingerprints.json"
)
SEEDS = (0, 1, 2, 3)
PROCESSORS = (3, 4, 8)
DOMAINS = (1, 2)
QUICK = ExperimentConfig.quick(runs=1).with_processors(4)
QUICK_SEED = 1998


def _digest(report) -> str:
    return hashlib.sha256(
        repr(simulation_fingerprint(report)).encode("utf-8")
    ).hexdigest()


def _digests(name: str) -> dict:
    """Cell name -> digest for every pinned cell of one scheduler."""
    digests = {}
    for workload_name in sorted(WORKLOADS):
        for seed in SEEDS:
            for m in PROCESSORS:
                tasks = WORKLOADS[workload_name](seed, num_processors=m)
                report = simulate(build(name), tasks, num_workers=m)
                digests[f"{name}/{workload_name}/s{seed}/m{m}"] = _digest(report)
    for domains in DOMAINS:
        report = run_once(QUICK.with_domains(domains), name, QUICK_SEED)
        digests[f"{name}/quick/s{QUICK_SEED}/m4/k{domains}"] = _digest(report)
    return digests


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_scheduler_reproduces_its_pinned_digests(name: str) -> None:
    digests = _digests(name)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
        table.update(digests)
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {len(digests)} digests for {name}")
    table = json.loads(TABLE.read_text())
    moved = sorted(
        cell for cell, digest in digests.items() if table.get(cell) != digest
    )
    assert not moved, (
        f"{len(moved)} of {len(digests)} pinned cells of {name} changed: "
        f"{moved[:5]}; if intended, regenerate with REPRO_REGEN_GOLDENS=1"
    )


def test_table_pins_every_builtin_scheduler_and_nothing_else() -> None:
    table = json.loads(TABLE.read_text())
    per_scheduler = len(WORKLOADS) * len(SEEDS) * len(PROCESSORS) + len(DOMAINS)
    assert len(table) == per_scheduler * len(SCHEDULER_NAMES)
    assert {cell.split("/")[0] for cell in table} == set(SCHEDULER_NAMES)
