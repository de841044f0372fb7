"""The ``repro trace`` command: analyze, visualize, and diff JSONL traces.

Every run of the experiment CLI with ``--trace-out`` (simulator sweeps and
live cluster runs alike) leaves one merged JSONL trace; this module is the
terminal-side consumer::

    repro trace analyze trace.jsonl
    repro trace timeline trace.jsonl --phase 0
    repro trace diff sim.jsonl cluster.jsonl

``analyze`` replays the trace and attributes every deadline miss to
exactly one cause (see :mod:`repro.observability.analyze` for the
taxonomy), ``timeline`` draws an ASCII per-processor Gantt chart, and
``diff`` compares two traces task by task — the intended use is holding a
simulator trace against a live-cluster trace of the same configuration.

All heavy lifting lives in :mod:`repro.observability.analyze`; this module
only parses arguments (rows of the one flag table in
:mod:`repro.experiments.cli`), reads files, and prints.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..observability import (
    attribute_misses,
    diff_traces,
    read_jsonl,
    render_attribution,
    render_diff,
    render_timeline,
)
from .cli import add_flags


def build_trace_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argument parser (separate so tests can drive it)."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Analyze JSONL traces written by --trace-out: attribute "
            "deadline misses, draw per-processor timelines, and diff two "
            "traces (e.g. simulator vs live cluster)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze",
        help="classify every deadline miss into exactly one cause",
    )
    add_flags(analyze, "trace", "json")

    timeline = commands.add_parser(
        "timeline",
        help="ASCII per-processor Gantt chart of the executed tasks",
    )
    add_flags(timeline, "trace", "phase", "width")

    diff = commands.add_parser(
        "diff",
        help="compare two traces task by task (presence, outcome, causes)",
    )
    add_flags(diff, "trace_a", "trace_b", "label_a", "label_b")
    return parser


def run_analyze(args: argparse.Namespace) -> int:
    """Attribute every miss in one trace; prints tables (or JSON)."""
    events = read_jsonl(args.trace)
    report = attribute_misses(events)
    if args.json:
        document = {
            "total_tasks": report.total_tasks,
            "phases": report.phases,
            "outcomes": dict(report.outcomes),
            "misses": [
                {
                    "task_id": miss.task_id,
                    "cause": miss.cause,
                    "outcome": miss.outcome,
                    "detail": miss.detail,
                    "deadline": miss.deadline,
                    "miss_time": miss.miss_time,
                    "phase": miss.phase,
                    "workload": miss.workload,
                    "regret": miss.is_regret,
                }
                for miss in report.misses
            ],
            "by_cause": dict(report.by_cause),
            "workload_class": report.workload_class,
            "regret_misses": report.regret_misses,
            "oracle": (
                report.oracle.as_dict() if report.oracle is not None else None
            ),
        }
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render_attribution(report))
    return 0


def run_timeline(args: argparse.Namespace) -> int:
    """Draw the per-processor Gantt chart of one trace."""
    events = read_jsonl(args.trace)
    print(render_timeline(events, phase=args.phase, width=args.width))
    return 0


def run_diff(args: argparse.Namespace) -> int:
    """Compare two traces; exit 0 on identical outcomes, 1 otherwise.

    The nonzero exit mirrors ``diff(1)``: scripted comparisons (CI holding
    the simulator against the live cluster) can branch on it directly.
    """
    events_a = read_jsonl(args.trace_a)
    events_b = read_jsonl(args.trace_b)
    diff = diff_traces(events_a, events_b)
    label_a = args.label_a or args.trace_a
    label_b = args.label_b or args.trace_b
    print(render_diff(diff, label_a=label_a, label_b=label_b))
    return 0 if diff.identical_outcomes else 1


#: Subcommand name -> handler taking the parsed namespace.
TRACE_HANDLERS = {
    "analyze": run_analyze,
    "timeline": run_timeline,
    "diff": run_diff,
}


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro trace`` (and the routed experiments CLI)."""
    parser = build_trace_parser()
    args = parser.parse_args(argv)
    try:
        return TRACE_HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via cli.main
    sys.exit(trace_main())
