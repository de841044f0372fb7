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

from ..observability import instrumented
from .cli import (
    LIVE_KNOB_FLAGS,
    WORKLOAD_FLAGS,
    add_flags,
    build_instrumentation,
    given,
    usage_errors,
    write_metrics_snapshot,
)
from .config import ExperimentConfig

#: What serve and load assume where a template-universe flag is absent.
#: Both sides rebuild the workload from these, so they are one preset, not
#: one per command.
SERVICE_PRESETS = {
    "num_processors": 2,
    "num_transactions": 100,
    "base_seed": 1,
    # Live runs burn real milliseconds on hops, so SF=1 would measure
    # socket latency.
    "slack_factor": 3.0,
}

#: ``repro serve`` flags that are one ``ClusterConfig`` field: dest -> field.
SERVE_CLUSTER_FLAGS = {
    **LIVE_KNOB_FLAGS,
    "port": "port",
    "scheduler": "scheduler_name",
    "max_wall_seconds": "max_wall_seconds",
}

#: ``repro serve`` flags that are one ``ServiceConfig`` field.
SERVE_SERVICE_FLAGS = {
    "policy": "admission_policy",
    "backlog_units": "max_backlog_units",
    "drain_grace": "drain_grace_seconds",
    "max_seconds": "max_service_seconds",
}

#: ``repro load`` flags that are one ``LoadSpec`` field.
LOAD_FLAGS = {
    "arrival": "arrival",
    "load": "offered_load",
    "submissions": "submissions",
    "load_seed": "seed",
    "time_scale": "seconds_per_unit",
    "settle_grace": "settle_grace_seconds",
    "clients": "clients",
}


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """The template-universe flags, identical on both subcommands."""
    group = parser.add_argument_group(
        "template universe",
        "must match between serve and load (both sides rebuild the "
        "workload deterministically from these)",
    )
    add_flags(group, *WORKLOAD_FLAGS)


def experiment_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The template universe both subcommands rebuild from flags."""
    overrides = {
        **SERVICE_PRESETS,
        **given(args, WORKLOAD_FLAGS),
        "backend": "service",
        "runs": 1,
    }
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
    add_flags(
        parser, "port", "scheduler", "policy", "backlog_units", "max_seconds",
        "drain_grace", "idle_stop", "join", "kill_worker", "time_scale",
        "heartbeat", "max_wall_seconds",
    )
    observability = parser.add_argument_group("observability")
    add_flags(observability, "verbose", "quiet", "trace_out", "metrics_out")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro serve``."""
    # Heavy imports stay inside main so `repro fig5` never pays for them.
    from ..cluster.config import ClusterConfig
    from ..service.config import ServiceConfig
    from ..service.server import run_service

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    with usage_errors(parser):
        service = ServiceConfig(
            cluster=ClusterConfig(
                experiment=experiment_from_args(args),
                **given(args, SERVE_CLUSTER_FLAGS),
            ),
            # A deployment serves until told to stop; harness runs ask for
            # the idle exit.
            stop_when_idle=args.idle_stop,
            **given(args, SERVE_SERVICE_FLAGS),
        )
    obs = build_instrumentation(args)

    def _serve(instrumentation) -> int:
        report = run_service(
            service,
            instrumentation=instrumentation,
            joins=args.join,
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
    add_flags(
        parser, "port", "host", "arrival", "load", "submissions",
        "load_seed", "time_scale", "settle_grace", "clients",
    )
    return parser


def load_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro load``."""
    from ..cluster.network import ConnectionLost
    from ..service.load import LoadSpec, run_load

    parser = build_load_parser()
    args = parser.parse_args(argv)
    if args.port is None:
        # One --port row serves both commands; only this one needs it.
        parser.error("the following arguments are required: --port")
    with usage_errors(parser):
        spec = LoadSpec(
            experiment=experiment_from_args(args), **given(args, LOAD_FLAGS)
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
