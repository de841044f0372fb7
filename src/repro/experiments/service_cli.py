"""The ``repro serve`` / ``repro load`` subcommands: service mode on a CLI.

``repro serve`` stands up a long-lived scheduler service (master + worker
fleet) on a TCP port and runs until SIGTERM, a ``--max-seconds`` cap, or —
with ``--idle-stop`` — until the last client disconnects with nothing in
flight.  ``repro load`` drives an open-loop submission stream against a
running service and prints the client-side compliance digest.

Both sides rebuild the *template universe* deterministically from the same
``(workload flags, seed)``, so the only thing that crosses the wire is
template ids — which is why the workload flags of a ``load`` invocation
must match its ``serve``.  A quickstart lives in README.md; the
compliance-under-load methodology is in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from ..core.registry import SCHEDULER_NAMES
from ..observability import instrumented
from ..service.admission import ADMISSION_POLICY_NAMES
from ..workload.arrivals import ARRIVAL_NAMES
from .config import ExperimentConfig

#: Flags shared by serve and load that must agree between the two sides
#: (they define the template universe both rebuild).
_WORKLOAD_FLAG_DESTS = (
    "workers", "transactions", "seed", "slack_factor", "replication"
)


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """The template-universe flags, identical on both subcommands."""
    group = parser.add_argument_group(
        "template universe",
        "must match between serve and load (both sides rebuild the "
        "workload deterministically from these)",
    )
    group.add_argument(
        "--workers", type=int, default=2,
        help="worker fleet size / data placement width (default 2)",
    )
    group.add_argument(
        "--transactions", type=int, default=100,
        help="distinct transaction templates (default 100)",
    )
    group.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (default 1)",
    )
    group.add_argument(
        "--slack-factor", type=float, default=3.0,
        help="deadline slack factor SF (default 3; live runs burn real "
        "milliseconds on hops, so SF=1 would measure socket latency)",
    )
    group.add_argument(
        "--replication", type=float, default=None,
        help="override replication rate",
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--verbose", "-v", action="store_true",
        help="structured INFO logging on stderr",
    )
    group.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    group.add_argument(
        "--trace-out", metavar="PATH",
        help="write a JSONL event trace (repro trace analyze PATH)",
    )
    group.add_argument("--metrics-out", metavar="PATH", help=argparse.SUPPRESS)


def experiment_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The template universe both subcommands rebuild from flags."""
    overrides = {
        "backend": "service",
        "num_processors": args.workers,
        "num_transactions": args.transactions,
        "base_seed": args.seed,
        "slack_factor": args.slack_factor,
        "runs": 1,
    }
    if args.replication is not None:
        overrides["replication_rate"] = args.replication
    return replace(ExperimentConfig.quick(), **overrides)


# ----- repro serve -----------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of ``repro serve`` (separate so tests can drive it)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run a long-lived RT-SADS scheduler service: master on a TCP "
            "port, a worker fleet, streaming admission. Stop with SIGTERM "
            "for a graceful drain."
        ),
    )
    _add_workload_flags(parser)
    parser.add_argument(
        "--port", type=int, default=0,
        help="master port (default 0 = OS-chosen; printed at startup)",
    )
    parser.add_argument(
        "--scheduler", default="rtsads", choices=SCHEDULER_NAMES,
        help="scheduler registry name (default rtsads)",
    )
    parser.add_argument(
        "--policy", default="reject-newest", choices=ADMISSION_POLICY_NAMES,
        help=f"admission policy: {', '.join(ADMISSION_POLICY_NAMES)} "
        "(default reject-newest)",
    )
    parser.add_argument(
        "--backlog-units", type=float, default=0.0,
        help="admission backlog cap in cost units (default 0 = derive "
        "from fleet size and mean template laxity)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=0.0,
        help="stop serving after this many wall seconds (default 0 = "
        "serve until SIGTERM or idle-stop)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="wall seconds in-flight work may finish during a drain "
        "before being surrendered (default 5)",
    )
    parser.add_argument(
        "--idle-stop", action="store_true",
        help="exit once at least one client was served and none remain "
        "(what scripted smoke runs use)",
    )
    parser.add_argument(
        "--join", action="append", default=[], metavar="INDEX@SECONDS",
        help="spawn an elastic worker mid-run, e.g. --join 2@3.0 "
        "(repeatable)",
    )
    parser.add_argument(
        "--kill-worker", metavar="INDEX@SECONDS",
        help="fail-stop one worker mid-run, e.g. 1@2.5",
    )
    parser.add_argument(
        "--time-scale", type=float, default=None,
        help="wall seconds per virtual cost unit (default 0.001)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None,
        help="worker heartbeat interval in seconds",
    )
    parser.add_argument(
        "--max-wall-seconds", type=float, default=None,
        help="hard abort ceiling for the whole run (safety net)",
    )
    _add_observability_flags(parser)
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro serve``."""
    # Heavy imports stay inside main so `repro fig5` never pays for them.
    from ..cluster.config import ClusterConfig
    from ..service.config import JoinPlan, ServiceConfig
    from ..service.server import run_service
    from .cli import (
        build_instrumentation,
        live_knobs_from_args,
        write_metrics_snapshot,
    )

    args = build_serve_parser().parse_args(argv)
    experiment = experiment_from_args(args)
    knobs = {"port": args.port, **live_knobs_from_args(args)}
    if args.max_wall_seconds is not None:
        knobs["max_wall_seconds"] = args.max_wall_seconds
    service = ServiceConfig(
        cluster=ClusterConfig(
            experiment=experiment,
            scheduler_name=args.scheduler,
            **knobs,
        ),
        admission_policy=args.policy,
        max_backlog_units=args.backlog_units,
        drain_grace_seconds=args.drain_grace,
        max_service_seconds=args.max_seconds,
        stop_when_idle=args.idle_stop,
    )
    joins = [JoinPlan.parse(spec) for spec in args.join]
    obs = build_instrumentation(args)

    def _serve(instrumentation) -> int:
        report = run_service(
            service,
            instrumentation=instrumentation,
            joins=joins,
            install_signal_handlers=True,
        )
        print(report.render())
        # A violated guarantee falsifies the theorem the service exists
        # to uphold; surrendered guarantees (drain) do not count.
        return 0 if report.guaranteed_violations == 0 else 1

    if obs is None:
        return _serve(None)
    try:
        with instrumented(obs):
            status = _serve(obs)
        if args.metrics_out:
            write_metrics_snapshot(args.metrics_out, obs, ["serve"])
    finally:
        obs.close()
    return status


# ----- repro load ------------------------------------------------------------


def build_load_parser() -> argparse.ArgumentParser:
    """Parser of ``repro load`` (separate so tests can drive it)."""
    parser = argparse.ArgumentParser(
        prog="repro load",
        description=(
            "Drive an open-loop transaction stream against a running "
            "'repro serve' and print the compliance digest. The template "
            "universe flags must match the serve side."
        ),
    )
    _add_workload_flags(parser)
    parser.add_argument(
        "--port", type=int, required=True,
        help="port of the running service master",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="host of the running service master (default 127.0.0.1)",
    )
    parser.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_NAMES,
        help=f"arrival process: {', '.join(ARRIVAL_NAMES)} "
        "(default poisson)",
    )
    parser.add_argument(
        "--load", type=float, default=1.0,
        help="offered load as a fraction of fleet capacity (default 1.0)",
    )
    parser.add_argument(
        "--submissions", type=int, default=0,
        help="submissions to stream (default 0 = one per template)",
    )
    parser.add_argument(
        "--load-seed", type=int, default=0,
        help="seed of the arrival stream (default 0 = the workload seed)",
    )
    parser.add_argument(
        "--time-scale", type=float, default=None,
        help="wall seconds per virtual cost unit; must match the serve "
        "side (default 0.001)",
    )
    parser.add_argument(
        "--settle-grace", type=float, default=5.0,
        help="extra wall seconds to await straggler RESULTs (default 5)",
    )
    parser.add_argument(
        "--clients", type=int, default=1,
        help="concurrent client connections; the stream is dealt "
        "round-robin across them (default 1)",
    )
    return parser


def load_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro load``."""
    from ..cluster.network import ConnectionLost
    from ..service.load import LoadSpec, run_load

    args = build_load_parser().parse_args(argv)
    experiment = experiment_from_args(args)
    spec_overrides = {}
    if args.time_scale is not None:
        spec_overrides["seconds_per_unit"] = args.time_scale
    spec = LoadSpec(
        experiment=experiment,
        arrival=args.arrival,
        offered_load=args.load,
        submissions=args.submissions,
        seed=args.load_seed,
        settle_grace_seconds=args.settle_grace,
        clients=args.clients,
        **spec_overrides,
    )
    try:
        report = run_load(args.host, args.port, spec)
    except (ConnectionRefusedError, ConnectionLost):
        print(
            f"no service listening on {args.host}:{args.port} "
            "(is 'repro serve' running?)",
            file=sys.stderr,
        )
        return 2
    print(report.render())
    # Unsettled submissions mean the service broke its every-ACCEPT-gets-
    # a-RESULT promise (or vanished); make that loud in exit status.
    return 0 if report.unsettled == 0 else 1
