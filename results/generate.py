"""Render the recorded outputs of every experiment in ``repro all``.

    python results/generate.py quick              # rewrite results/quick_*.txt
    python results/generate.py paper --jobs 4     # rewrite results/paper_*.txt
    python results/generate.py --check quick --jobs 2

The experiment list is ``repro.experiments.cli.EXPERIMENTS`` (the rows in
``all``), so a table added there is recorded and checked here.  ``--check``
writes nothing: it renders each experiment through the cell engine, compares
with the file on disk, and exits non-zero on any difference.  Files land next
to this script, whatever the working directory (``repro`` must be importable:
``pip install -e .`` or ``PYTHONPATH=src``).
"""

import argparse
import difflib
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments import ExperimentConfig
from repro.experiments.cli import EXPERIMENTS, positive_int

OUT = Path(__file__).resolve().parent

#: Builder arguments the recorded outputs were made with.
BUILDER_KWARGS = {"laxity": {"processors": (2, 4, 6, 8, 10)}}

#: E4's two measured wall-clock readings; everything else is seeded.
MEASURED = re.compile(
    r"(?<=vertex: )[\d.]+(?= us)|(?<=cost ~)[\d,]+(?=x relative)"
)


def masked(text: str) -> str:
    """``text`` with the host-dependent numbers of ``overhead`` blanked."""
    return MEASURED.sub("<measured>", text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", choices=("quick", "paper"))
    parser.add_argument("--jobs", type=positive_int, default=1)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    config = replace(getattr(ExperimentConfig, args.scale)(), jobs=args.jobs)
    differing = []
    for name, experiment in EXPERIMENTS.items():
        if not experiment.in_all:
            continue
        path = OUT / f"{args.scale}_{name.replace('-', '_')}.txt"
        start = time.time()
        result = experiment.builder(config, **BUILDER_KWARGS.get(name, {}))
        rendered = result.render() + "\n"
        if not args.check:
            path.write_text(rendered)
        else:
            recorded = path.read_text() if path.exists() else ""
            if masked(rendered) != masked(recorded):
                differing.append(name)
                sys.stdout.writelines(
                    difflib.unified_diff(
                        recorded.splitlines(keepends=True),
                        rendered.splitlines(keepends=True),
                        f"recorded {path.name}", "rendered",
                    )
                )
        print(f"DONE {name} in {time.time() - start:.0f}s", flush=True)
    if differing:
        print(f"DIFFERENT: {', '.join(differing)}")
        return 1
    print("ALL DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
