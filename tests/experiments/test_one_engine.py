"""One cell engine: every execution mode reproduces the pinned figures.

The fixtures ``tests/fixtures/golden/engine_*.json`` were written at the
commit *before* ``runner.run_cell`` lost its own repetition loop, by that
loop (``jobs=1``, no cache): the exported JSON and the rendered report of
a tiny ``figure5``, a ``shard_curve`` with k in {1, 2} and an
``ablation_quantum`` (whose cells carry a quantum-policy variant).
``engine_tables.json`` was written one simplification later, at the commit
*before* the nine tables moved onto that engine, by their own loops.  The
engine in ``experiments/sweep.py`` must reproduce those bytes however it
is asked to run — in the parent, in a spawn pool, against a cold cache
and against a warm one.

Regenerate (only when a behaviour change is intended and understood)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_one_engine.py -q -k in_the_parent
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.quantum import FixedQuantum
from repro.experiments import ExperimentConfig, run_grid
from repro.experiments import figures, runner, sweep
from repro.experiments.cli import (
    EXPERIMENTS,
    build_experiment,
    export_figure_json,
)
from repro.experiments.extensions import (
    ablation_interconnect,
    extension_failures,
    extension_load_sweep,
    extension_reclaiming,
    extension_write_mix,
)
from repro.experiments.figures import (
    ablation_cost,
    ablation_memory,
    ablation_quantum,
    ablation_representation,
    figure5,
    shard_curve,
)
from repro.observability import (
    OFF,
    Instrumentation,
    StructuredLogger,
    instrumented,
)
from repro.runtime.sim import SimBackend

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

TINY = ExperimentConfig.quick(num_transactions=40, runs=2)

#: fixture stem -> (CLI experiment name, builder over a config).
FIGURES = {
    "figure5": ("fig5", lambda config: figure5(config, processors=(2, 3))),
    "shard_curve": (
        "shard-curve",
        # Vertices dear enough that one master falls behind two.
        lambda config: shard_curve(
            replace(config, per_vertex_cost=0.5),
            processors=(4,),
            domains=(1, 2),
        ),
    ),
    "ablation_quantum": (
        "ablate-quantum",
        lambda config: ablation_quantum(config.with_processors(2)),
    ),
}


def _document(stem: str, config: ExperimentConfig, tmp_path: Path) -> str:
    """Export bytes (figures only) + rendered report of one tiny figure."""
    name, build = FIGURES[stem]
    result = build(config)
    exported = None
    if hasattr(result, "figure"):
        path = tmp_path / f"{stem}-export.json"
        export_figure_json(str(path), name, result)
        exported = path.read_text(encoding="utf-8")
    return json.dumps(
        {"export": exported, "render": result.render()},
        indent=2,
        sort_keys=True,
    )


def _golden(stem: str) -> str:
    return (GOLDEN_DIR / f"engine_{stem}.json").read_text().rstrip("\n")


def _cache_files(root: Path):
    return sorted(root.glob("*/*-seed*.json"))


@pytest.mark.parametrize("stem", FIGURES)
def test_in_the_parent_without_a_cache(stem, tmp_path):
    document = _document(stem, TINY, tmp_path)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        (GOLDEN_DIR / f"engine_{stem}.json").write_text(document + "\n")
        pytest.skip(f"regenerated engine_{stem}.json")
    assert document == _golden(stem)


@pytest.mark.slow
@pytest.mark.parametrize("stem", FIGURES)
def test_in_a_spawn_pool(stem, tmp_path):
    config = replace(TINY, jobs=2)
    assert _document(stem, config, tmp_path) == _golden(stem)


@pytest.mark.parametrize("stem", FIGURES)
def test_cold_cache_then_warm_cache(stem, tmp_path):
    cache_dir = tmp_path / "cache"
    config = replace(TINY, cache_dir=str(cache_dir))
    assert _document(stem, config, tmp_path) == _golden(stem)
    written = _cache_files(cache_dir)
    stamps = [path.stat().st_mtime_ns for path in written]
    assert _document(stem, config, tmp_path) == _golden(stem)
    # The warm run loaded every record it had written and wrote no other.
    assert _cache_files(cache_dir) == written
    assert [path.stat().st_mtime_ns for path in written] == stamps
    if stem == "ablation_quantum":
        assert written == []  # every cell carries a simulator variant
    else:
        assert written


# ----- the nine tables -------------------------------------------------------

TABLE_CONFIG = ExperimentConfig.quick(
    num_transactions=60, runs=2, num_processors=4
)

TABLES = {
    "ablate-quantum": ablation_quantum,
    "ablate-cost": ablation_cost,
    "ablate-representation": ablation_representation,
    "ablate-interconnect": ablation_interconnect,
    "ablate-memory": ablation_memory,
    "reclaiming": extension_reclaiming,
    "load-sweep": extension_load_sweep,
    "write-mix": extension_write_mix,
    "failures": extension_failures,
}

#: The default comparison, and a pinned scheduler that is not in it.
TABLE_SCHEDULERS = (None, "greedy_edf")


def _tables_document(config: ExperimentConfig) -> str:
    """``render()`` plus the ``repr`` of every row cell of every table."""
    document = {}
    for name, build in TABLES.items():
        for scheduler in TABLE_SCHEDULERS:
            result = build(replace(config, scheduler=scheduler))
            document[f"{name}/{scheduler or 'default'}"] = {
                "render": result.render(),
                "rows": [[repr(value) for value in row] for row in result.rows],
            }
    return json.dumps(document, indent=2, sort_keys=True)


def test_tables_in_the_parent_without_a_cache():
    document = _tables_document(TABLE_CONFIG)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        (GOLDEN_DIR / "engine_tables.json").write_text(document + "\n")
        pytest.skip("regenerated engine_tables.json")
    assert document == _golden("tables")


@pytest.fixture
def pools_entered(monkeypatch):
    """The start method of every pool the engine opens, in order."""
    entered = []
    get_context = sweep.multiprocessing.get_context

    def spy(method):
        entered.append(method)
        return get_context(method)

    monkeypatch.setattr(sweep.multiprocessing, "get_context", spy)
    return entered


@pytest.mark.slow
def test_tables_in_a_spawn_pool(pools_entered):
    assert _tables_document(replace(TABLE_CONFIG, jobs=2)) == _golden("tables")
    # Every table of every scheduler setting fanned its cells out: a row's
    # variant is no reason to stay in the parent.
    assert pools_entered == ["spawn"] * len(TABLES) * len(TABLE_SCHEDULERS)


def test_tables_cold_cache_then_warm_cache(tmp_path):
    config = replace(TABLE_CONFIG, cache_dir=str(tmp_path))
    assert _tables_document(config) == _golden("tables")
    written = _cache_files(tmp_path)
    stamps = [path.stat().st_mtime_ns for path in written]
    assert _tables_document(config) == _golden("tables")
    assert _cache_files(tmp_path) == written
    assert [path.stat().st_mtime_ns for path in written] == stamps
    # Only ablate-representation's cells are what their config says they
    # are: its two schedulers, each seed, under each scheduler setting
    # (the pin is a cache field).  A variant cell has no content address.
    assert sorted(path.name for path in written) == sorted(
        f"{name}-seed{seed}.json"
        for name in ("rtsads", "dcols")
        for seed in config.seeds()
        for _ in TABLE_SCHEDULERS
    )


class TestVariantSpecs:
    """A spec carrying a backend instance: never cached, pooled like any."""

    SPECS = [
        (TINY, "rtsads", SimBackend(quantum_policy=FixedQuantum(5.0))),
        (TINY, "rtsads"),
    ]

    def test_writes_no_cache_file(self, tmp_path):
        outcome = run_grid(self.SPECS, cache_dir=str(tmp_path))
        assert outcome.stats.executed == 2 * TINY.runs
        assert len(_cache_files(tmp_path)) == TINY.runs
        again = run_grid(self.SPECS, cache_dir=str(tmp_path))
        assert again.stats.executed == TINY.runs
        assert again.stats.cached == TINY.runs
        assert [c.hit_percents for c in again.cells] == [
            c.hit_percents for c in outcome.cells
        ]

    @pytest.mark.slow
    def test_is_pooled_and_reproduces_the_in_parent_cell(self, pools_entered):
        pooled = run_grid(self.SPECS[:1], jobs=2).cells[0]
        assert pools_entered == ["spawn"]
        here, plain = run_grid(self.SPECS, jobs=1).cells
        assert repr(pooled) == repr(here)
        # ... and the variant reached the scheduler.
        assert here.scheduling_times != plain.scheduling_times


# ----- every experiment, one path --------------------------------------------

IN_ALL = [name for name, row in EXPERIMENTS.items() if row.in_all]


@pytest.mark.parametrize("name", IN_ALL)
def test_no_run_outside_the_engine(name, monkeypatch):
    config = ExperimentConfig.quick(
        num_transactions=30, runs=2, num_processors=3
    )
    reports = []

    def spy(*args, **kwargs):
        reports.append(runner.run_once(*args, **kwargs))
        return reports[-1]

    for module in (sweep, figures):  # everywhere run_once is bound
        monkeypatch.setattr(module, "run_once", spy)
    obs = Instrumentation(logger=StructuredLogger(level=OFF))
    with instrumented(obs):
        build_experiment(name, config)
    counters = obs.metrics.snapshot()["counters"]
    in_engine = counters["sweep_cells{source=run}"]
    # E4 reads per-phase Q_s, which no cell record carries, off one extra
    # repetition per scheduler; nothing else runs beside the engine.
    extra = len(figures.PAPER_SCHEDULERS) if name == "overhead" else 0
    assert len(reports) == in_engine + extra
    # ... nothing is simulated except through run_once ...
    assert counters["runtime_runs"] == len(reports)
    # ... every cell left its --metrics-out summary ...
    assert in_engine == config.runs * len(obs.cells)
    # ... and every repetition's events can be told apart by seed.
    assert {report.seed for report in reports} == set(config.seeds())
