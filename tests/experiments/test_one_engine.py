"""One cell engine: every execution mode reproduces the pinned figures.

The fixtures ``tests/fixtures/golden/engine_*.json`` were written at the
commit *before* ``runner.run_cell`` lost its own repetition loop, by that
loop (``jobs=1``, no cache): the exported JSON and the rendered report of
a tiny ``figure5``, a ``shard_curve`` with k in {1, 2} and an
``ablation_quantum`` (whose cells carry a quantum-policy override).  The
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
from repro.experiments import ExperimentConfig, run_cell, run_grid
from repro.experiments import sweep
from repro.experiments.cli import export_figure_json
from repro.experiments.figures import ablation_quantum, figure5, shard_curve

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
        assert written == []  # every cell carries an override
    else:
        assert written


class TestOverrideSpecs:
    """A spec carrying an ablation override runs in the parent, uncached."""

    def test_writes_no_cache_file(self, tmp_path):
        config = replace(TINY, cache_dir=str(tmp_path))
        outcome = run_grid(
            [(config, "rtsads", None, FixedQuantum(5.0)), (config, "rtsads")]
        )
        assert outcome.stats.executed == 2 * config.runs
        assert len(_cache_files(tmp_path)) == config.runs
        again = run_grid(
            [(config, "rtsads", None, FixedQuantum(5.0)), (config, "rtsads")]
        )
        assert again.stats.executed == config.runs
        assert again.stats.cached == config.runs
        assert [c.hit_percents for c in again.cells] == [
            c.hit_percents for c in outcome.cells
        ]

    def test_never_enters_the_pool(self, monkeypatch):
        def no_pool(method):
            raise AssertionError("an override spec must not be pooled")

        monkeypatch.setattr(sweep.multiprocessing, "get_context", no_pool)
        config = replace(TINY, jobs=4)
        pooled = run_cell(config, "rtsads", quantum_policy=FixedQuantum(5.0))
        here = run_cell(TINY, "rtsads", quantum_policy=FixedQuantum(5.0))
        assert pooled.scheduling_times == here.scheduling_times
        # ... and the override reached the scheduler.
        plain = run_cell(TINY, "rtsads")
        assert pooled.scheduling_times != plain.scheduling_times
