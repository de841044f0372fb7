"""Paths and the benchmark contract shared by the benchmark's programs."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SIM_WORKLOADS = ("fig5-paper", "figs-quick", "shard-wide")
SERVE_WORKLOAD = "serve-stream"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, built or not.

    Fails (the caller exits non-zero) when the program is not there: a
    benchmark directory on its own measures nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark needs the program under {SRC}")
    sys.path.insert(0, str(SRC))


def load_contract() -> Dict[str, object]:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
