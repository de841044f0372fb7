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

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Callable, List, NamedTuple, Optional

from ..observability import (
    Instrumentation,
    JsonlSink,
    StructuredLogger,
    instrumented,
)
from ..core.domains import PARTITION_POLICIES
from ..core.registry import SCHEDULER_NAMES
from ..runtime import BACKEND_NAMES
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


def _parse_domains(spec: str) -> tuple:
    """Parse ``--domains``: one count (``4``) or a comma list (``1,2,4``)."""
    try:
        values = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"invalid --domains value {spec!r}") from None
    if not values or any(value < 1 for value in values):
        raise ValueError(f"invalid --domains value {spec!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (kept separate so tests can drive it)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'A Scalable Scheduling Algorithm "
            "for Real-Time Distributed Systems' (ICDCS 1998)."
        ),
    )
    parser.add_argument(
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
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--paper",
        action="store_true",
        help="full Section-5.1 scale (1000 transactions, 10 runs; slow)",
    )
    scale.add_argument(
        "--quick",
        action="store_true",
        help="CI scale preserving cost ratios (default)",
    )
    parser.add_argument("--runs", type=int, help="override repetitions per cell")
    parser.add_argument(
        "--transactions", type=int, help="override transaction count"
    )
    parser.add_argument("--seed", type=int, help="override base seed")
    parser.add_argument(
        "--processors", type=int, help="override fixed processor count"
    )
    parser.add_argument(
        "--replication", type=float, help="override fixed replication rate"
    )
    parser.add_argument(
        "--slack-factor", type=float, help="override slack factor SF"
    )
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULER_NAMES,
        help=(
            "pin every cell to one scheduler registry name (default: the "
            "paper's rtsads-vs-dcols comparison for figures, rtsads for "
            "'cluster')"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        help=(
            "execution backend for every cell: 'sim' (virtual-clock "
            "simulator, the default), 'cluster' (live TCP processes), "
            "'service' (live streaming service under open-loop load), or "
            "'sharded' (the simulator with its report labelled by "
            "scheduling domain even at --domains 1)"
        ),
    )
    sharding = parser.add_argument_group(
        "scheduling domains",
        "split the workers into k domains, one master each, with "
        "inter-domain migration (see docs/ARCHITECTURE.md)",
    )
    sharding.add_argument(
        "--domains",
        metavar="K[,K...]",
        help=(
            "scheduling-domain count: a single k shards any experiment "
            "(sim or cluster) into k masters; a comma list sets the "
            "shard-curve series (default 1,2,4)"
        ),
    )
    sharding.add_argument(
        "--partition-policy",
        choices=PARTITION_POLICIES,
        help="how workers are assigned to domains (default hash)",
    )
    sweeps = parser.add_argument_group(
        "parallel sweeps",
        "fan cells over worker processes and cache finished cells "
        "(results are byte-identical for every combination of these flags)",
    )
    sweeps.add_argument(
        "--jobs",
        "-j",
        type=int,
        help=(
            "worker processes for independent cells (default 1 = serial; "
            f"implies caching under {DEFAULT_CACHE_DIR} unless --no-cache)"
        ),
    )
    sweeps.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "cache finished cells under DIR so re-runs skip them "
            f"(default {DEFAULT_CACHE_DIR} when --jobs/--resume is given, "
            "otherwise off)"
        ),
    )
    caching = sweeps.add_mutually_exclusive_group()
    caching.add_argument(
        "--no-cache",
        action="store_true",
        help="never read or write the cell cache, even with --jobs",
    )
    caching.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep: re-run only cells missing from "
            "the cache (implies caching)"
        ),
    )
    sweeps.add_argument(
        "--export",
        metavar="PATH",
        help=(
            "also write the figure's data as JSON to PATH "
            f"({EXPORTING} only; byte-stable across --jobs/--resume)"
        ),
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="progress line per repetition on stderr (INFO level)",
    )
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress everything below ERROR",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace (phase spans, task lifecycle)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a JSON metrics snapshot (per-scheduler counters, per cell)",
    )
    cluster = parser.add_argument_group(
        "cluster mode", "only meaningful with the 'cluster' experiment"
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes to spawn (default 4)",
    )
    cluster.add_argument(
        "--tasks",
        type=int,
        default=200,
        help="transactions in the live workload (default 200)",
    )
    cluster.add_argument(
        "--kill-worker",
        metavar="INDEX@SECONDS",
        help="fail-stop one worker mid-run, e.g. 1@0.5",
    )
    cluster.add_argument(
        "--time-scale",
        type=float,
        help="wall seconds per virtual cost unit (default 0.001)",
    )
    cluster.add_argument(
        "--heartbeat",
        type=float,
        help="worker heartbeat interval in seconds (default 0.25)",
    )
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
    :func:`sweep_execution_from_args`.
    """
    config = (
        ExperimentConfig.paper() if args.paper else ExperimentConfig.quick()
    )
    overrides = dict(sweep_execution_from_args(args))
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.transactions is not None:
        overrides["num_transactions"] = args.transactions
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.processors is not None:
        overrides["num_processors"] = args.processors
    if args.replication is not None:
        overrides["replication_rate"] = args.replication
    if args.slack_factor is not None:
        overrides["slack_factor"] = args.slack_factor
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.scheduler is not None:
        overrides["scheduler"] = args.scheduler
    if getattr(args, "domains", None) is not None:
        values = _parse_domains(args.domains)
        if len(values) == 1:
            overrides["domains"] = values[0]
        elif args.experiment != "shard-curve":
            raise SystemExit(
                "--domains accepts a comma list only with shard-curve"
            )
    if getattr(args, "partition_policy", None) is not None:
        overrides["partition_policy"] = args.partition_policy
    return replace(config, **overrides) if overrides else config


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


def cluster_config_from_args(
    args: argparse.Namespace,
) -> ExperimentConfig:
    """The 'cluster' subcommand's :class:`ExperimentConfig`.

    Starts from the shared :func:`config_from_args` so every generic
    override (--transactions, --seed, --runs, ...) means the same thing on
    both backends, then applies the live-friendly presets where no
    override was given: the CLI's historical 200-task / 4-worker scale,
    one run, a slack factor of 3 (live deadlines burn real milliseconds
    on message hops, so the tightest setting would measure socket latency,
    not scheduling), and base seed 1.
    """
    config = config_from_args(args)
    presets = {"backend": "cluster"}
    if args.transactions is None:
        presets["num_transactions"] = args.tasks
    if args.processors is None:
        presets["num_processors"] = args.workers
    if args.slack_factor is None:
        presets["slack_factor"] = 3.0
    if args.runs is None:
        presets["runs"] = 1
    if args.seed is None:
        presets["base_seed"] = 1
    return replace(config, **presets)


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
    config = config_from_args(args)
    presets = {}
    if args.transactions is None:
        presets["num_transactions"] = 500
    # No CLI flag exposes the per-vertex cost; the shard curve is
    # *about* search latency, so the pressure preset applies at both
    # scales.
    presets["per_vertex_cost"] = 0.1
    return replace(config, **presets) if presets else config


def live_knobs_from_args(args: argparse.Namespace) -> dict:
    """``--kill-worker`` / ``--time-scale`` / ``--heartbeat`` as
    :class:`~repro.cluster.config.ClusterConfig` fields (given flags only).

    Shared by ``repro cluster`` and ``repro serve``, whose live fleets take
    the same three knobs.
    """
    # Imported lazily: simulation-only usage never touches sockets or
    # multiprocessing machinery.
    from ..cluster import FailurePlan

    knobs = {}
    if args.kill_worker:
        knobs["failure"] = FailurePlan.parse(args.kill_worker)
    if args.time_scale is not None:
        knobs["seconds_per_unit"] = args.time_scale
    if args.heartbeat is not None:
        knobs["heartbeat_interval"] = args.heartbeat
    return knobs


def run_cluster(args: argparse.Namespace) -> int:
    """Run one cell on the live master/worker system and print its report."""
    from ..runtime.live import ClusterBackend
    from .runner import run_once

    backend = ClusterBackend(**live_knobs_from_args(args))
    config = cluster_config_from_args(args)
    # The live repetition draws its seed exactly where the simulator
    # does, so `--seed S` reproduces one specific simulated repetition
    # on real processes.
    seed = config.seeds()[0]
    obs = build_instrumentation(args) or Instrumentation.disabled()
    scheduler = args.scheduler or "rtsads"
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


def cluster_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-cluster`` console script."""
    forwarded = list(sys.argv[1:] if argv is None else argv)
    return main(["cluster", *forwarded])


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` / ``repro-experiments`` console scripts."""
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
        return run_cluster(args)
    if args.experiment == "all":
        names = [name for name, row in EXPERIMENTS.items() if row.in_all]
    else:
        names = [args.experiment]
    if args.export and not all(EXPERIMENTS[name].exports for name in names):
        parser.error(f"--export requires one of: {EXPORTING}")
    extra = {}
    if args.experiment == "shard-curve":
        config = shard_config_from_args(args)
        if args.domains is not None:
            extra["domains"] = _parse_domains(args.domains)
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
