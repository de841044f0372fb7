"""Command-line interface: regenerate any experiment from a terminal.

Examples::

    python -m repro.experiments fig5 --quick
    python -m repro.experiments fig6 --paper
    python -m repro.experiments laxity --quick --runs 2
    python -m repro.experiments overhead --quick
    python -m repro.experiments ablate-quantum --quick
    python -m repro.experiments shard-curve --runs 1 --export shard.json
    python -m repro.experiments all --quick

Parallel sweeps (see EXPERIMENTS.md "Parallel sweeps" appendix)::

    python -m repro.experiments fig5 --quick --jobs 4
    python -m repro.experiments fig5 --quick --jobs 4 --resume
    python -m repro.experiments fig5 --quick --jobs 4 --export fig5.json

Observability (see EXPERIMENTS.md appendix for the schemas)::

    python -m repro.experiments fig5 --quick --verbose
    python -m repro.experiments fig5 --quick --trace-out trace.jsonl \\
        --metrics-out metrics.json

Trace analysis (see docs/OBSERVABILITY.md; also ``repro trace ...``)::

    python -m repro.experiments trace analyze trace.jsonl
    python -m repro.experiments trace timeline trace.jsonl --phase 0
    python -m repro.experiments trace diff sim.jsonl cluster.jsonl
"""

from __future__ import annotations

import math
import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..observability import (
    Instrumentation,
    JsonlSink,
    StructuredLogger,
    instrumented,
)
from ..core.domains import PARTITION_POLICIES
from ..core.registry import SCHEDULER_NAMES
from ..runtime import BACKEND_NAMES
from ..service.admission import ADMISSION_POLICY_NAMES
from ..workload.arrivals import ARRIVAL_NAMES
from .config import ExperimentConfig
from .sweep import DEFAULT_CACHE_DIR
from .extensions import (
    ablation_interconnect,
    extension_load_sweep,
    extension_failures,
    extension_reclaiming,
    extension_write_mix,
    service_curve,
)
from .figures import (
    ablation_cost,
    ablation_memory,
    ablation_quantum,
    ablation_representation,
    figure5,
    figure6,
    laxity_sweep,
    overhead_table,
    shard_curve,
)

class Experiment(NamedTuple):
    """One row of the experiment table: how to build it, where it shows."""

    #: ``builder(config, **kwargs)`` -> a result object with ``.render()``.
    builder: Callable[..., object]
    #: Part of ``all``: a pure simulation at the shared --quick/--paper
    #: scale, safe for any sandbox.
    in_all: bool = True
    #: Carries figure data that ``--export`` can write.
    exports: bool = False


#: Every experiment the CLI can name; parser choices, ``all``, dispatch and
#: the ``--export`` check all read this one table.  'service-curve' runs
#: real processes (one service lifetime per cell) and 'shard-curve' runs
#: at its own pressure scale, so neither is part of ``all``.  ('cluster'
#: is a parser choice too, but a command with its own flags and report —
#: see :func:`run_cluster` — not a row here.)
EXPERIMENTS = {
    "fig5": Experiment(figure5, exports=True),
    "fig6": Experiment(figure6, exports=True),
    "laxity": Experiment(laxity_sweep, exports=True),
    "overhead": Experiment(overhead_table),
    "ablate-quantum": Experiment(ablation_quantum),
    "ablate-cost": Experiment(ablation_cost),
    "ablate-representation": Experiment(ablation_representation),
    "ablate-interconnect": Experiment(ablation_interconnect),
    "ablate-memory": Experiment(ablation_memory),
    "reclaiming": Experiment(extension_reclaiming),
    "load-sweep": Experiment(extension_load_sweep),
    "write-mix": Experiment(extension_write_mix),
    "failures": Experiment(extension_failures),
    "service-curve": Experiment(service_curve, in_all=False, exports=True),
    "shard-curve": Experiment(shard_curve, in_all=False, exports=True),
}

#: The experiments ``--export`` accepts, as its messages list them.
EXPORTING = ", ".join(
    name for name, experiment in EXPERIMENTS.items() if experiment.exports
)


# ----- flag value parsers -----------------------------------------------------


def _checked(cast: Callable[[str], object], expected: str, ok=None):
    """An argparse ``type=``: ``cast`` the text, then require ``ok(value)``.

    A ``cast`` that raises ``ValueError`` or a value ``ok`` refuses is a
    usage error naming what was ``expected`` (exit status 2, one line on
    stderr), never a traceback.
    """

    def parse(text: str):
        """``text`` as a checked value, or an ``ArgumentTypeError``."""
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or (ok is not None and not ok(value)):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            )
        return value

    return parse


def _parse_domains(spec: str) -> tuple:
    """Parse ``--domains``: one count (``4``) or a comma list (``1,2,4``)."""
    try:
        values = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"invalid --domains value {spec!r}") from None
    if not values or any(value < 1 for value in values):
        raise ValueError(f"invalid --domains value {spec!r}")
    return values


def _parse_kill_worker(spec: str):
    """``--kill-worker INDEX@SECONDS`` as a ``FailurePlan``."""
    # Imported lazily: simulation-only usage never touches sockets or
    # multiprocessing machinery.
    from ..cluster.failure import FailurePlan

    return FailurePlan.parse(spec)


def _parse_join(spec: str):
    """``--join INDEX@SECONDS`` as a ``JoinPlan``."""
    from ..service.config import JoinPlan

    return JoinPlan.parse(spec)


positive_int = _checked(int, "a positive integer", lambda v: v > 0)
count = _checked(int, "a non-negative integer", lambda v: v >= 0)
positive_float = _checked(
    float, "a positive finite number", lambda v: 0 < v < math.inf
)
amount = _checked(
    float, "a non-negative finite number", lambda v: 0 <= v < math.inf
)
unit_rate = _checked(float, "a rate in (0, 1]", lambda v: 0 < v <= 1)
tcp_port = _checked(int, "a port in 0..65535", lambda v: 0 <= v <= 65535)
chart_width = _checked(int, "at least 16 columns", lambda v: v >= 16)
domain_counts = _checked(
    _parse_domains, "a domain count K >= 1 or a comma list K,K,..."
)
_WORKER_EVENT = "INDEX@SECONDS with INDEX >= 0 and SECONDS >= 0"
kill_worker = _checked(_parse_kill_worker, _WORKER_EVENT)
join_worker = _checked(_parse_join, _WORKER_EVENT)


# ----- the flag table ---------------------------------------------------------


class Flag(NamedTuple):
    """One row of :data:`FLAGS`: what ``add_argument`` is called with."""

    options: Tuple[str, ...]
    kwargs: Dict[str, object]


def _flag(*options: str, **kwargs) -> Flag:
    """A :data:`FLAGS` row, written the way ``add_argument`` is called."""
    return Flag(options, kwargs)


#: Every flag of every ``repro`` command, defined once.  The four parser
#: builders (:func:`build_parser`, ``build_serve_parser``,
#: ``build_load_parser``, ``build_trace_parser``) only *select* rows by
#: name through :func:`add_flags`, so a flag shared by two commands cannot
#: differ between them in type, choices or help.  A row carries no
#: per-command default: where commands assume different values for an
#: absent flag (``--seed``, ``--transactions``, ...), the value is ``None``
#: here and the command's preset code fills it in
#: (:func:`cluster_config_from_args`, ``service_cli.experiment_from_args``,
#: the config dataclasses' own defaults).  Every ``type=`` parses *and*
#: range-checks, so a malformed value is a usage error.
FLAGS: Dict[str, Flag] = {
    # --- what to run, at which scale ---
    "experiment": _flag(
        "experiment",
        choices=(*EXPERIMENTS, "all", "cluster"),
        help=(
            "which experiment to run; 'cluster' runs the live master/worker "
            "system over localhost TCP instead of the simulator; "
            "'service-curve' sweeps compliance-under-load on the live "
            "streaming service (see also: repro serve / repro load); "
            "'shard-curve' sweeps compliance vs processors for each "
            "scheduling-domain count"
        ),
    ),
    "paper": _flag(
        "--paper",
        action="store_true",
        help="full Section-5.1 scale (1000 transactions, 10 runs; slow)",
    ),
    "quick": _flag(
        "--quick",
        action="store_true",
        help="CI scale preserving cost ratios (default)",
    ),
    # --- the cell: workload, machine, scheduler, backend ---
    "runs": _flag(
        "--runs",
        type=positive_int,
        help="repetitions per cell (default: the scale's; 1 for 'cluster')",
    ),
    "transactions": _flag(
        "--transactions",
        "--tasks",
        type=positive_int,
        help=(
            "transaction count (default: the scale's; 200 for 'cluster', "
            "500 for 'shard-curve', 100 templates for serve/load, where "
            "both sides must agree).  --tasks is the same flag: given "
            "both, the last one on the command line wins"
        ),
    ),
    "seed": _flag(
        "--seed",
        type=int,
        help=(
            "base seed of the workload (default 1998; 1 for 'cluster', "
            "serve and load, where both sides must agree)"
        ),
    ),
    "processors": _flag(
        "--processors",
        "--workers",
        type=positive_int,
        help=(
            "working processors = worker processes = data placement width "
            "(default: the scale's 10; 4 for 'cluster', 2 for serve/load, "
            "where both sides must agree).  --workers is the same flag: "
            "given both, the last one on the command line wins"
        ),
    ),
    "replication": _flag(
        "--replication",
        type=unit_rate,
        help="replication rate R in (0, 1] (default: the scale's 0.3)",
    ),
    "slack_factor": _flag(
        "--slack-factor",
        type=positive_float,
        help=(
            "deadline slack factor SF (default: the scale's 1; 3 for "
            "'cluster', serve and load — live runs burn real milliseconds "
            "on hops, so SF=1 would measure socket latency)"
        ),
    ),
    "scheduler": _flag(
        "--scheduler",
        choices=SCHEDULER_NAMES,
        help=(
            "pin every cell to one scheduler registry name (default: the "
            "paper's rtsads-vs-dcols comparison for figures, rtsads for "
            "'cluster' and serve)"
        ),
    ),
    "backend": _flag(
        "--backend",
        choices=BACKEND_NAMES,
        help=(
            "execution backend for every cell: 'sim' (virtual-clock "
            "simulator, the default), 'cluster' (live TCP processes), "
            "'service' (live streaming service under open-loop load), or "
            "'sharded' (the simulator with its report labelled by "
            "scheduling domain even at --domains 1)"
        ),
    ),
    "domains": _flag(
        "--domains",
        metavar="K[,K...]",
        type=domain_counts,
        help=(
            "scheduling-domain count: a single k shards any experiment "
            "(sim or cluster) into k masters; a comma list sets the "
            "shard-curve series (default 1,2,4)"
        ),
    ),
    "partition_policy": _flag(
        "--partition-policy",
        choices=PARTITION_POLICIES,
        help="how workers are assigned to domains (default hash)",
    ),
    # --- how the sweep executes ---
    "jobs": _flag(
        "--jobs",
        "-j",
        type=positive_int,
        help=(
            "worker processes for independent cells (default 1 = serial; "
            f"implies caching under {DEFAULT_CACHE_DIR} unless --no-cache)"
        ),
    ),
    "cache_dir": _flag(
        "--cache-dir",
        metavar="DIR",
        help=(
            "cache finished cells under DIR so re-runs skip them "
            f"(default {DEFAULT_CACHE_DIR} when --jobs/--resume is given, "
            "otherwise off)"
        ),
    ),
    "no_cache": _flag(
        "--no-cache",
        action="store_true",
        help="never read or write the cell cache, even with --jobs",
    ),
    "resume": _flag(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep: re-run only cells missing from "
            "the cache (implies caching)"
        ),
    ),
    "export": _flag(
        "--export",
        metavar="PATH",
        help=(
            "also write the figure's data as JSON to PATH "
            f"({EXPORTING} only; byte-stable across --jobs/--resume)"
        ),
    ),
    # --- observability ---
    "verbose": _flag(
        "--verbose",
        "-v",
        action="store_true",
        help="structured INFO logging on stderr (a progress line per cell)",
    ),
    "quiet": _flag(
        "--quiet",
        action="store_true",
        help="suppress everything below ERROR",
    ),
    "trace_out": _flag(
        "--trace-out",
        metavar="PATH",
        help=(
            "write a JSONL event trace (phase spans, task lifecycle; "
            "read it with: repro trace analyze PATH)"
        ),
    ),
    "metrics_out": _flag(
        "--metrics-out",
        metavar="PATH",
        help="write a JSON metrics snapshot (per-scheduler counters, per cell)",
    ),
    # --- the live fleet ('cluster' and serve) ---
    "kill_worker": _flag(
        "--kill-worker",
        metavar="INDEX@SECONDS",
        type=kill_worker,
        help="fail-stop one worker mid-run, e.g. 1@0.5",
    ),
    "time_scale": _flag(
        "--time-scale",
        type=positive_float,
        help=(
            "wall seconds per virtual cost unit (default 0.001); a load "
            "client must be given the value its service runs at"
        ),
    ),
    "heartbeat": _flag(
        "--heartbeat",
        type=positive_float,
        help="worker heartbeat interval in seconds (default 0.25)",
    ),
    # --- repro serve ---
    "port": _flag(
        "--port",
        type=tcp_port,
        help=(
            "service master port (serve: default 0 = OS-chosen, printed "
            "at startup; load: required)"
        ),
    ),
    "policy": _flag(
        "--policy",
        choices=ADMISSION_POLICY_NAMES,
        help=f"admission policy: {', '.join(ADMISSION_POLICY_NAMES)} "
        "(default reject-newest)",
    ),
    "backlog_units": _flag(
        "--backlog-units",
        type=amount,
        help="admission backlog cap in cost units (default 0 = derive "
        "from fleet size and mean template laxity)",
    ),
    "max_seconds": _flag(
        "--max-seconds",
        type=amount,
        help="stop serving after this many wall seconds (default 0 = "
        "serve until SIGTERM or idle-stop)",
    ),
    "drain_grace": _flag(
        "--drain-grace",
        type=positive_float,
        help="wall seconds in-flight work may finish during a drain "
        "before being surrendered (default 5)",
    ),
    "idle_stop": _flag(
        "--idle-stop",
        action="store_true",
        help="exit once at least one client was served and none remain "
        "(what scripted smoke runs use)",
    ),
    "join": _flag(
        "--join",
        action="append",
        default=[],
        metavar="INDEX@SECONDS",
        type=join_worker,
        help="spawn an elastic worker mid-run, e.g. --join 2@3.0 "
        "(repeatable)",
    ),
    "max_wall_seconds": _flag(
        "--max-wall-seconds",
        type=positive_float,
        help="hard abort ceiling for the whole run (safety net; "
        "default 120)",
    ),
    # --- repro load ---
    "host": _flag(
        "--host",
        default="127.0.0.1",
        help="host of the running service master (default 127.0.0.1)",
    ),
    "arrival": _flag(
        "--arrival",
        choices=ARRIVAL_NAMES,
        help=f"arrival process: {', '.join(ARRIVAL_NAMES)} "
        "(default poisson)",
    ),
    "load": _flag(
        "--load",
        type=positive_float,
        help="offered load as a fraction of fleet capacity (default 1.0)",
    ),
    "submissions": _flag(
        "--submissions",
        type=count,
        help="submissions to stream (default 0 = one per template)",
    ),
    "load_seed": _flag(
        "--load-seed",
        type=int,
        help="seed of the arrival stream (default 0 = the workload seed)",
    ),
    "settle_grace": _flag(
        "--settle-grace",
        type=amount,
        help="extra wall seconds to await straggler RESULTs (default 5)",
    ),
    "clients": _flag(
        "--clients",
        type=positive_int,
        help="concurrent client connections; the stream is dealt "
        "round-robin across them (default 1)",
    ),
    # --- repro trace ---
    "trace": _flag("trace", help="path to a JSONL trace"),
    "json": _flag(
        "--json",
        action="store_true",
        help="emit the attribution as JSON instead of tables",
    ),
    "phase": _flag(
        "--phase",
        type=count,
        help="restrict to tasks placed in this scheduling phase",
    ),
    "width": _flag(
        "--width",
        type=chart_width,
        default=72,
        help="chart width in columns (default 72, at least 16)",
    ),
    "trace_a": _flag("trace_a", help="first JSONL trace (e.g. simulator)"),
    "trace_b": _flag("trace_b", help="second JSONL trace (e.g. cluster)"),
    "label_a": _flag("--label-a", help="display name for the first trace"),
    "label_b": _flag("--label-b", help="display name for the second trace"),
}


def add_flags(target, *names: str) -> None:
    """Add the named :data:`FLAGS` rows to a parser or argument group."""
    for name in names:
        options, kwargs = FLAGS[name]
        target.add_argument(*options, **kwargs)


def given(args: argparse.Namespace, fields: Dict[str, str]) -> dict:
    """``{field: value}`` for each ``dest -> field`` whose flag was given."""
    return {
        field: getattr(args, dest)
        for dest, field in fields.items()
        if getattr(args, dest) is not None
    }


@contextmanager
def usage_errors(parser: argparse.ArgumentParser):
    """Report a config constructor's or builder's ``ValueError`` as a usage
    error.

    The flag rows check each value alone; what only a constructor can see
    (``--domains 20`` against 10 processors, ``--kill-worker 9@1`` against
    4 workers) leaves the same way: exit status 2, one line, no traceback.
    """
    try:
        yield
    except ValueError as error:
        parser.error(str(error))


#: The template-universe flags every command shares: dest -> config field.
WORKLOAD_FLAGS = {
    "transactions": "num_transactions",
    "seed": "base_seed",
    "processors": "num_processors",
    "replication": "replication_rate",
    "slack_factor": "slack_factor",
}

#: Every flag of ``repro <experiment>`` that is one config field.
CONFIG_FLAGS = {
    **WORKLOAD_FLAGS,
    "runs": "runs",
    "backend": "backend",
    "scheduler": "scheduler",
    "partition_policy": "partition_policy",
}

#: The three live-fleet knobs 'cluster' and serve share: dest ->
#: ``ClusterConfig`` field.
LIVE_KNOB_FLAGS = {
    "kill_worker": "failure",
    "time_scale": "seconds_per_unit",
    "heartbeat": "heartbeat_interval",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (kept separate so tests can drive it)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'A Scalable Scheduling Algorithm "
            "for Real-Time Distributed Systems' (ICDCS 1998)."
        ),
    )
    add_flags(parser, "experiment")
    add_flags(parser.add_mutually_exclusive_group(), "paper", "quick")
    add_flags(
        parser, "runs", "transactions", "seed", "processors", "replication",
        "slack_factor", "scheduler", "backend",
    )
    sharding = parser.add_argument_group(
        "scheduling domains",
        "split the workers into k domains, one master each, with "
        "inter-domain migration (see docs/ARCHITECTURE.md)",
    )
    add_flags(sharding, "domains", "partition_policy")
    sweeps = parser.add_argument_group(
        "parallel sweeps",
        "fan cells over worker processes and cache finished cells "
        "(results are byte-identical for every combination of these flags)",
    )
    add_flags(sweeps, "jobs", "cache_dir")
    add_flags(sweeps.add_mutually_exclusive_group(), "no_cache", "resume")
    add_flags(sweeps, "export")
    add_flags(parser.add_mutually_exclusive_group(), "verbose", "quiet")
    add_flags(parser, "trace_out", "metrics_out")
    cluster = parser.add_argument_group(
        "cluster mode", "only meaningful with the 'cluster' experiment"
    )
    add_flags(cluster, "kill_worker", "time_scale", "heartbeat")
    return parser


def build_instrumentation(args: argparse.Namespace) -> Optional[Instrumentation]:
    """The CLI's instrumentation, or None when every flag is off.

    Instrumentation stays disabled unless at least one observability flag is
    given, keeping the default run path as fast as the uninstrumented seed.
    """
    wants_any = args.verbose or args.trace_out or args.metrics_out
    if not wants_any:
        return None
    if args.verbose:
        level = "info"
    elif args.quiet:
        level = "error"
    else:
        level = "warning"
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    return Instrumentation(
        logger=StructuredLogger(name="repro.experiments", level=level),
        sink=sink,
    )


def write_metrics_snapshot(
    path: str, obs: Instrumentation, experiments: List[str]
) -> None:
    """Dump the run's registry snapshot plus per-cell summaries as JSON."""
    document = {
        "experiments": experiments,
        "cells": obs.cells,
        "metrics": obs.metrics.snapshot(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def sweep_execution_from_args(args: argparse.Namespace) -> dict:
    """The (jobs, cache_dir) overrides the sweep flags imply.

    Caching policy: ``--cache-dir`` always enables it; ``--jobs N`` and
    ``--resume`` turn it on under :data:`DEFAULT_CACHE_DIR` (``--resume``
    is nothing more than that: the engine consults whatever cache it is
    given); ``--no-cache`` forces it off; and a plain serial invocation
    leaves it off entirely, so the default CLI run touches nothing on disk.
    """
    jobs = args.jobs if args.jobs is not None else 1
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    elif args.resume or jobs > 1:
        cache_dir = DEFAULT_CACHE_DIR
    else:
        cache_dir = None
    return {"jobs": jobs, "cache_dir": cache_dir}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Build the run's :class:`ExperimentConfig` from parsed CLI flags.

    Starts from the chosen scale (``--paper`` / ``--quick``), applies the
    generic workload overrides, then the sweep-execution knobs from
    :func:`sweep_execution_from_args`.  Raises ``ValueError`` for what only
    the whole config can refuse (see :func:`usage_errors`).
    """
    config = (
        ExperimentConfig.paper() if args.paper else ExperimentConfig.quick()
    )
    overrides = {
        **sweep_execution_from_args(args), **given(args, CONFIG_FLAGS)
    }
    if args.domains is not None:
        if len(args.domains) == 1:
            overrides["domains"] = args.domains[0]
        elif args.experiment != "shard-curve":
            raise ValueError(
                "--domains accepts a comma list only with shard-curve"
            )
    return replace(config, **overrides)


def build_experiment(name: str, config: ExperimentConfig, **kwargs):
    """Run one experiment by CLI name and return its result object.

    ``kwargs`` pass through to the builder (only shard-curve uses any:
    its ``domains`` series).
    """
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}") from None
    return experiment.builder(config, **kwargs)


def _sweep_regret(result) -> dict:
    """Per-cell oracle regret summaries of one sweep, keyed for JSON.

    Shape: ``{scheduler: {x_value: summary}}`` using
    :func:`repro.metrics.regret.summarize_regret`; cells without regret
    data (non-figure results) contribute nothing.  Deterministic given
    the cells, so exports stay byte-stable across ``--jobs``/``--resume``.
    """
    section: dict = {}
    for (scheduler, x), cell in getattr(result, "cells", {}).items():
        if not hasattr(cell, "regret_summary"):
            continue
        section.setdefault(scheduler, {})[f"{x:g}"] = cell.regret_summary()
    return section


def export_figure_json(path: str, name: str, result) -> None:
    """Write one experiment's figure data as canonical JSON.

    Supports results carrying a ``figure`` (fig5/fig6 sweeps) and the
    laxity result's per-SF sweep dict; sweep results additionally carry a
    ``regret`` section (compliance vs the schedulability oracle's bound,
    see EXPERIMENTS.md).  The document is dumped with sorted keys and a
    fixed indent, and dataclass floats serialize via ``repr``, so two
    runs that computed identical values produce byte-identical files —
    this is what CI's ``sweep-smoke`` job compares across ``--jobs``
    counts.
    """
    if hasattr(result, "figure"):
        document = {"experiment": name, "figure": asdict(result.figure)}
        regret = _sweep_regret(result)
        if regret:
            document["regret"] = regret
    elif hasattr(result, "sweeps"):
        document = {
            "experiment": name,
            "figures": {
                f"SF={sf:g}": asdict(result.sweeps[sf].figure)
                for sf in sorted(result.sweeps)
            },
        }
        regret = {
            f"SF={sf:g}": _sweep_regret(result.sweeps[sf])
            for sf in sorted(result.sweeps)
        }
        if any(regret.values()):
            document["regret"] = regret
    else:
        raise ValueError(
            f"experiment {name!r} has no figure data to export; --export "
            f"supports {EXPORTING}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


#: What 'cluster' assumes where a flag is absent: the CLI's historical
#: 200-task / 4-worker scale, one run, base seed 1, and a slack factor of 3
#: (live deadlines burn real milliseconds on message hops, so the tightest
#: setting would measure socket latency, not scheduling).
CLUSTER_PRESETS = {
    "num_transactions": 200,
    "num_processors": 4,
    "slack_factor": 3.0,
    "runs": 1,
    "base_seed": 1,
}


def cluster_config_from_args(
    args: argparse.Namespace,
) -> ExperimentConfig:
    """The 'cluster' subcommand's :class:`ExperimentConfig`.

    Starts from the shared :func:`config_from_args` so every generic
    override (--transactions, --seed, --runs, ...) means the same thing on
    both backends, then applies :data:`CLUSTER_PRESETS` where no flag was
    given.
    """
    flagged = given(args, CONFIG_FLAGS)
    presets = {
        field: value
        for field, value in CLUSTER_PRESETS.items()
        if field not in flagged
    }
    return replace(config_from_args(args), backend="cluster", **presets)


def shard_config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The 'shard-curve' subcommand's :class:`ExperimentConfig`.

    Starts from the shared :func:`config_from_args`, then applies the
    curve's pressure presets where no override was given.  The figure
    only separates domain counts when the single master is
    search-latency-bound (many tasks per batch, expensive vertices), so
    the defaults raise the per-vertex cost and the transaction count
    well above the generic --quick scale; at --quick scale all domain
    counts would sit on top of each other.
    """
    # No CLI flag exposes the per-vertex cost; the shard curve is *about*
    # search latency, so the pressure preset applies at both scales.
    presets = {"per_vertex_cost": 0.1}
    if args.transactions is None:
        presets["num_transactions"] = 500
    return replace(config_from_args(args), **presets)


def run_cluster(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Run one cell on the live master/worker system and print its report."""
    from ..runtime.live import ClusterBackend
    from .runner import run_once

    scheduler = args.scheduler or "rtsads"
    with usage_errors(parser):
        config = cluster_config_from_args(args)
        # The live repetition draws its seed exactly where the simulator
        # does, so `--seed S` reproduces one specific simulated repetition
        # on real processes.
        seed = config.seeds()[0]
        backend = ClusterBackend(**given(args, LIVE_KNOB_FLAGS))
        # Built once here so a deployment the flags cannot form (a killed
        # worker outside the fleet) is a usage error, not a mid-run one.
        backend.cluster_config(config, scheduler, seed)
    obs = build_instrumentation(args) or Instrumentation.disabled()
    try:
        with instrumented(obs):
            with obs.span("cluster_run", workers=config.num_processors):
                report = run_once(config, scheduler, seed, backend=backend)
        if args.metrics_out:
            write_metrics_snapshot(args.metrics_out, obs, ["cluster"])
    finally:
        obs.close()
    print(report.render())
    # A guaranteed task missing its deadline falsifies the theorem the
    # live system exists to demonstrate; make that loud in exit status.
    return 0 if report.guaranteed_violations == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` console script."""
    arglist = list(sys.argv[1:] if argv is None else argv)
    if arglist and arglist[0] == "trace":
        # The trace toolbox has its own subcommand grammar; route before
        # the experiment parser rejects the unknown positional.
        from .trace_cli import trace_main

        return trace_main(arglist[1:])
    if arglist and arglist[0] == "serve":
        # Service mode has its own grammar too (see service_cli).
        from .service_cli import serve_main

        return serve_main(arglist[1:])
    if arglist and arglist[0] == "load":
        from .service_cli import load_main

        return load_main(arglist[1:])
    parser = build_parser()
    args = parser.parse_args(arglist)
    if args.experiment == "cluster":
        return run_cluster(args, parser)
    if args.experiment == "all":
        names = [name for name, row in EXPERIMENTS.items() if row.in_all]
    else:
        names = [args.experiment]
    if args.export and not all(EXPERIMENTS[name].exports for name in names):
        parser.error(f"--export requires one of: {EXPORTING}")
    extra = {}
    with usage_errors(parser):
        if args.experiment == "shard-curve":
            config = shard_config_from_args(args)
            if args.domains is not None:
                extra["domains"] = args.domains
        else:
            config = config_from_args(args)
    # With no observability flag this is the everything-off bundle: the
    # spans and log calls below cost a boolean check each.
    obs = build_instrumentation(args) or Instrumentation.disabled()
    try:
        with instrumented(obs):
            for name in names:
                obs.logger.info("experiment start", experiment=name)
                with obs.span("experiment", experiment=name):
                    # What only a builder can refuse (a table that varies
                    # the simulator under --backend cluster, a shard curve
                    # wider than its smallest machine) is a usage error too.
                    with usage_errors(parser):
                        result = build_experiment(name, config, **extra)
                    print(result.render())
                print()
                if args.export:
                    export_figure_json(args.export, name, result)
                    obs.logger.info("figure exported", path=args.export)
        if args.metrics_out:
            write_metrics_snapshot(args.metrics_out, obs, names)
            obs.logger.info("metrics written", path=args.metrics_out)
        if args.trace_out:
            obs.logger.info("trace written", path=args.trace_out)
    finally:
        obs.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
