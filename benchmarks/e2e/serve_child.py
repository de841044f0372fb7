"""The service side of ``serve-stream``: one ``run_service`` call.

Started by ``serveload.ServiceProcess`` in a session of its own.  Prints
the bound port as its first line, serves until its client disconnects (or
SIGTERM asks for a drain), then prints one JSON line with the master's
report, the process tree's resource use and, when traced, the master's
layer seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import use_source_tree

#: Abort a service nobody stopped; longer than any run the contract allows.
MAX_SERVICE_SECONDS = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    use_source_tree()
    from repro.cluster.config import ClusterConfig
    from repro.service import ServiceConfig, run_service

    service = ServiceConfig(
        cluster=ClusterConfig.smoke(
            workers=2,
            tasks=64,
            seed=args.seed,
            seconds_per_unit=0.0002,
            max_wall_seconds=MAX_SERVICE_SECONDS,
        ),
        admission_policy="reject-newest",
    )

    def announce(_host: str, port: int) -> None:
        print(json.dumps({"port": port}), flush=True)

    serve = run_service
    tracer = counts = missing = None
    if args.trace:
        from layers import RunCounts, install_layers
        from tracing import Tracer

        tracer, counts = Tracer(), RunCounts()
        missing = install_layers(tracer, counts)
        serve = tracer.wrap("service.run", run_service)

    started = time.perf_counter()
    report = serve(service, install_signal_handlers=True, drive_load=announce)
    wall = time.perf_counter() - started

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "submitted": report.extras["submitted"],
        "accepted": report.extras["accepted"],
        "rejected": report.extras["rejected"],
        "shed": report.extras["shed"],
        "surrendered": report.extras["surrendered"],
        "completed": report.completed,
        "deadline_hits": report.deadline_hits,
        "expired": report.expired,
        "guaranteed_violations": report.guaranteed_violations,
        "phases": report.num_phases,
        "drain_reason": report.extras["drain_reason"],
        "wall_s": wall,
        "master_rss_kb": own.ru_maxrss,
        "worker_rss_kb": workers.ru_maxrss,
        "tree_cpu_s": own.ru_utime + own.ru_stime
        + workers.ru_utime + workers.ru_stime,
    }
    if tracer is not None:
        from layers import layer_seconds
        from tracing import write_spans

        counts.add(report)
        seconds = layer_seconds(tracer.spans, wall)
        result["layers"] = {
            **seconds,
            **counts.metrics(
                seconds["core.search_s"], seconds["simulator.engine_s"]
            ),
        }
        result["trace_missing"] = missing
        result["spans"] = len(tracer.spans)
        if args.trace_out:
            write_spans(tracer.spans, args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
