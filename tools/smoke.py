#!/usr/bin/env python3
"""Live smoke runs: real processes over localhost TCP, a few seconds each.

    python tools/smoke.py cluster
    python tools/smoke.py service [--trace-out /tmp/service.jsonl]
    python tools/smoke.py shard   [--trace-out /tmp/sharded.jsonl]
    python tools/smoke.py trace   [--trace-out /tmp/trace.jsonl]

CI's ``cluster-smoke``, ``service-smoke``, ``shard-smoke`` and
``trace-smoke`` jobs and ``.claude/skills/verify`` run exactly these, so
what CI checks can be run locally and the library calls they make
(``launch_cluster(router=)``, ``run_service(joins=, drive_load=)``, a
``FailurePlan`` on a ``ClusterConfig``) are visible to import-based
tooling.  Each smoke launches the live system, checks that its report
balances (``RunReport.check_balance``), and ends with the shared
post-conditions: the merged trace's outcome counts equal the report's,
every deadline miss attributed to exactly one cause, and no worker
process left behind.

Runs from a file with a main guard, never from stdin: the workers use the
multiprocessing spawn context, which re-imports the parent's ``__main__``.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ClusterConfig, FailurePlan, launch_cluster  # noqa: E402
from repro.experiments import ExperimentConfig, run_once  # noqa: E402
from repro.experiments.trace_cli import trace_main  # noqa: E402
from repro.observability import (  # noqa: E402
    CAUSES,
    Instrumentation,
    JsonlSink,
    attribute_misses,
    instrumented,
    read_jsonl,
    render_attribution,
)
from repro.service import (  # noqa: E402
    JoinPlan,
    LoadSpec,
    ServiceConfig,
    run_load,
    run_service,
)


@contextmanager
def traced(path: str):
    """An instrumentation writing the run's merged JSONL trace to ``path``."""
    obs = Instrumentation(sink=JsonlSink(path))
    try:
        yield obs
    finally:
        obs.close()


def check_attribution(path: str, report):
    """The report balances, the merged trace tells the same story, and
    every miss in it carries exactly one known cause."""
    report.check_balance()
    events = read_jsonl(path)
    attribution = attribute_misses(events)
    print(render_attribution(attribution))
    outcomes = attribution.outcomes
    extras = report.extras
    assert attribution.total_tasks == extras.get(
        "accepted", report.total_tasks
    ), attribution.total_tasks
    assert outcomes["met"] == report.deadline_hits, outcomes
    assert outcomes["late"] == report.completed_late, outcomes
    assert outcomes["expired"] == report.expired, outcomes
    assert outcomes["shed"] == extras.get("shed", 0), outcomes
    assert outcomes["surrendered"] == extras.get("surrendered", 0), outcomes
    assert outcomes["incomplete"] == 0, outcomes
    for miss in attribution.misses:
        assert miss.cause in CAUSES, miss
    assert sum(attribution.by_cause.values()) == len(attribution.misses)
    return events, attribution


def check_no_orphans() -> None:
    """Orphan-free teardown: every spawned worker is reaped."""
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked worker processes: {leaked}"


def smoke_cluster(trace_out: str) -> str:
    """One cell on the live cluster stays in the simulation's regime."""
    config = ExperimentConfig.quick(
        num_transactions=40, num_processors=2,
        slack_factor=3.0, runs=1, base_seed=1,
    )
    report = run_once(config, "rtsads", config.base_seed, backend="cluster")
    print(report.render())
    assert report.guaranteed_violations == 0, (
        "a guaranteed task missed its deadline"
    )
    assert report.workers_lost == 0, "workers died without injection"

    simulated = run_once(config, "rtsads", config.base_seed)
    # The live system pays real message latency the simulator does not
    # model; allow a generous jitter tolerance, but the live run must stay
    # in the simulation's regime.
    tolerance = 0.25
    assert report.hit_ratio >= simulated.hit_ratio - tolerance, (
        f"live compliance {report.hit_ratio:.3f} fell more than "
        f"{tolerance} below simulated {simulated.hit_ratio:.3f}"
    )
    return f"live {report.hit_ratio:.3f} vs simulated {simulated.hit_ratio:.3f}"


def smoke_service(trace_out: str) -> str:
    """~20 s of bursty load across an elastic join and a fail-stop."""
    # A slowed clock stretches the bursty stream across real seconds so the
    # join (3 s) and the fail-stop (8 s) both land mid-load.
    cluster = ClusterConfig.smoke(
        workers=2, tasks=40, seed=7,
        seconds_per_unit=0.01, max_wall_seconds=120.0,
        failure=FailurePlan(1, 8.0),
    )
    spec = LoadSpec(
        experiment=cluster.experiment,
        arrival="burst",
        offered_load=1.0,
        submissions=40,
        seed=3,
        seconds_per_unit=cluster.seconds_per_unit,
    )
    holder = {}

    def drive(host: str, port: int) -> None:
        holder["load"] = run_load(host, port, spec)

    with traced(trace_out) as obs:
        report = run_service(
            ServiceConfig(cluster=cluster),
            instrumentation=obs,
            joins=[JoinPlan(worker_index=2, after_seconds=3.0)],
            drive_load=drive,
        )
    print(report.render())
    load = holder["load"]
    print(load.render())

    # Every submission settled across a join AND a fail-stop.
    assert load.submitted == 40, load.submitted
    assert load.unsettled == 0, f"{load.unsettled} submissions unsettled"
    assert report.extras["submitted"] == load.submitted
    assert report.extras["accepted"] == load.accepted
    # Both membership events really happened.
    assert report.extras["distinct_workers"] == 3, report.extras
    assert report.workers_lost >= 1, "injected fail-stop did not fire"
    # Fail-stop surrenders guarantees; it never violates them.
    assert report.guaranteed_violations == 0

    events, attribution = check_attribution(trace_out, report)
    workers_in_trace = {
        e["worker"] for e in events
        if e.get("component") == "worker" and "worker" in e
    }
    assert len(workers_in_trace) >= 2, workers_in_trace
    return (
        f"compliance {report.hit_ratio:.3f}, "
        f"{len(attribution.misses)} misses all attributed, "
        f"3 distinct workers, {report.workers_lost} lost"
    )


def smoke_shard(trace_out: str) -> str:
    """Two live domains with a forced cross-domain migration.

    The router misroutes every task to domain 0, so domain 0's master must
    hand work to domain 1 over real MIGRATE_OFFER/ACCEPT frames.
    """
    experiment = ExperimentConfig.quick(
        num_transactions=40, num_processors=4,
        base_seed=7, slack_factor=1.4, runs=1,
    ).with_domains(2)
    config = ClusterConfig(
        experiment=experiment,
        heartbeat_interval=0.15,
        max_wall_seconds=90.0,
        seconds_per_unit=0.0005,
    )
    with traced(trace_out) as obs:
        report = launch_cluster(
            config, instrumentation=obs, router=lambda task: 0
        )
    print(report.render())

    # At least one real migration happened, and the ledger balances: every
    # offer resolved exactly once.
    section = report.migration
    assert section["accepted"] >= 1, section
    assert section["offers"] == (
        section["accepted"] + section["declined"] + section["timeouts"]
    ), section
    assert sum(section["out_by_domain"].values()) == section["offers"]
    assert sum(section["in_by_domain"].values()) == section["accepted"]
    # Guarantee accounting absorbed the handoffs exactly once: the merged
    # report balances (checked with the trace below).  (No
    # guaranteed_violations assertion: slack 1.4 under a deliberate
    # overload is a wall-clock stress run, like the slack-1.0 trace
    # smoke.)
    assert report.total_tasks == 40

    # Misses on migrated tasks carry their cross-domain path.
    events, attribution = check_attribution(trace_out, report)
    run_end = [e for e in events if e.get("event") == "run_end"]
    assert len(run_end) == 1
    assert run_end[0]["domains"] == 2
    assert run_end[0]["migrations"] == section["accepted"]
    for miss in attribution.misses:
        if miss.migration:
            assert miss.migration == "0->1", miss
    return (
        f"{section['accepted']} accepted migrations, "
        f"{len(attribution.misses)} misses all attributed, "
        f"{attribution.migrated_misses} on migrated tasks"
    )


def smoke_trace(trace_out: str) -> str:
    """A tight-slack live cell whose merged trace explains its misses.

    The trace must merge the master and every worker onto one
    skew-corrected timeline, and ``repro trace analyze`` must attribute
    every deadline miss in it — and count every outcome as the report
    did.
    """
    config = ExperimentConfig.quick(
        num_transactions=24, num_processors=2,
        slack_factor=1.0, runs=1, base_seed=1,
    )
    with traced(trace_out) as obs, instrumented(obs):
        report = run_once(config, "rtsads", config.base_seed, backend="cluster")
    print(report.render())

    events, attribution = check_attribution(trace_out, report)
    workers = {
        e["worker"] for e in events
        if e.get("component") == "worker" and "worker" in e
    }
    assert workers == {0, 1}, f"missing worker events: {workers}"
    corrected = [
        e for e in events
        if e.get("component") == "worker" and "m_mono" in e
    ]
    assert corrected, "no skew-corrected worker events"
    assert any(e["event"] == "clock_offset" for e in events)

    # The CLI's JSON document says the same as the library call.
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert trace_main(["analyze", trace_out, "--json"]) == 0
    document = json.loads(printed.getvalue())
    misses = document["misses"]
    assert misses, "slack-factor 1.0 must produce deadline misses"
    assert len(misses) == len(attribution.misses)
    assert all(m["cause"] in CAUSES for m in misses)
    assert sum(document["by_cause"].values()) == len(misses)
    return (
        f"{len(events)} events from master + workers {sorted(workers)}, "
        f"{len(misses)} misses all attributed"
    )


SMOKES = {
    "cluster": smoke_cluster,
    "service": smoke_service,
    "shard": smoke_shard,
    "trace": smoke_trace,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", choices=tuple(SMOKES))
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="where service / shard / trace write their merged JSONL trace "
        "(default /tmp/NAME.jsonl)",
    )
    args = parser.parse_args(argv)
    summary = SMOKES[args.name](args.trace_out or f"/tmp/{args.name}.jsonl")
    check_no_orphans()
    print(f"ok: {summary}, no orphans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
