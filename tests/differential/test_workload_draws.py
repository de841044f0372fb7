"""The workload memo against a fresh build, field by field.

The runner's memo keeps a seed's draw (rows, index and transactions made
into task drafts) and places it for each ``(m, R)`` it is asked for.  Every
task it returns must equal the one :func:`build_seeded_workload` makes from
nothing for the same config and seed, affinity included: at quick scale
over the whole fig. 5 x fig. 6 grid requested in a shuffled order, at paper
scale on the three processor counts the benchmark runs, and after a
write-mix run has rewritten rows of a database built from the same seed.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments import runner
from repro.experiments.config import PROCESSOR_SWEEP, REPLICATION_SWEEP
from repro.experiments.extensions import extension_write_mix
from repro.experiments.runner import WorkloadMemo, workload_tasks
from repro.workload.transactions import build_seeded_workload

SEEDS = (1, 777, 1998)


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each case starts from an empty process memo."""
    monkeypatch.setattr(runner, "_WORKLOADS", WorkloadMemo())


def _fields(tasks):
    return [astuple(task) for task in tasks]


def _assert_memo_matches_a_fresh_build(config, seed):
    _, fresh, _ = build_seeded_workload(config, seed)
    assert _fields(workload_tasks(config, seed)) == _fields(fresh)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_quick_grid_in_any_order(seed):
    cells = [
        (m, rate) for m in PROCESSOR_SWEEP for rate in REPLICATION_SWEEP
    ]
    random.Random(seed).shuffle(cells)
    base = ExperimentConfig.quick()
    for m, rate in cells:
        config = base.with_processors(m).with_replication(rate)
        _assert_memo_matches_a_fresh_build(config, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_scale_on_the_benchmarks_processor_counts(seed):
    base = ExperimentConfig.paper()
    for m in (2, 6, 8):
        _assert_memo_matches_a_fresh_build(base.with_processors(m), seed)


def test_a_hit_after_updates_have_run_equals_a_fresh_build():
    """The memo shares no mutable state with any database: rows rewritten
    by executed updates of the same seed change nothing it returns."""
    seed = 1998
    config = ExperimentConfig.quick(num_transactions=120, runs=1)
    first = workload_tasks(config, seed)

    extension_write_mix(config, write_fractions=(0.5,))
    database, _, transactions = build_seeded_workload(
        config, seed, write_fraction=0.5
    )
    executor = database.global_executor()
    rewritten = sum(
        executor.execute_update(txn).rows_changed
        for txn in transactions
        if txn.is_write
    )
    assert rewritten > 0

    assert workload_tasks(config, seed) is first
    _assert_memo_matches_a_fresh_build(config, seed)
    for m in (3, 7):
        _assert_memo_matches_a_fresh_build(config.with_processors(m), seed)
