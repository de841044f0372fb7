"""End-to-end, layer-attributed benchmark of the RT-SADS reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke]
                                  [--out FILE] [--trace-out FILE]

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public callables and reports the per-layer
metrics.  Without ``--workload`` every workload runs, each in a process of
its own (peak memory is per process); without ``--trace`` both kinds of run
are made.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object.  Exits 1 when an output check fails.

README.md in this directory explains workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    HERE,
    SERVE_WORKLOAD,
    load_contract,
    use_source_tree,
)
from stats import median, summarize

DEFAULT_SEED = 1998
#: Fresh interpreters timed from spawn to the end of the warm-up cell.
SIM_SETUPS = 7
#: Service trees timed from spawn to the first answered SUBMIT.
SERVE_SETUPS = 3


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    use_source_tree()
    if args.setup_only:
        import simload

        simload.warm_up()
        return 0
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    if args.workload is None or args.trace is None:
        return run_all(args, [args.workload] if args.workload else names)
    seconds = args.seconds or (1.5 if args.smoke else contract["run_seconds"])
    if args.workload == SERVE_WORKLOAD:
        result = serve_workload(args, seconds)
    else:
        result = sim_workload(args, seconds)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    result["metrics"] = {
        spec["name"]: {
            # A layer this workload never enters reads 0; an end-to-end
            # metric every workload must have measured.
            "value": (
                measured.get(spec["name"], 0) if args.trace
                else measured[spec["name"]]
            ),
            "unit": spec["unit"],
        }
        for spec in wanted
    }
    report(args.workload, args.trace, result, wanted)
    if args.out:
        write_json(args.out, {args.workload: {f"trace{args.trace}": result}})
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="length of the timed section (default: BENCHMARK.json's)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--smoke", action="store_true",
        help="same code paths on ~10x smaller inputs, for CI",
    )
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--trace-out", help="write the traced run's spans")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----- simulator workloads --------------------------------------------------


def sim_workload(args: argparse.Namespace, seconds: float) -> dict:
    import simload

    simload.warm_up()
    if args.trace:
        return traced_sim_workload(args)
    setup_s = [
        time_sim_setup() for _ in range(2 if args.smoke else SIM_SETUPS)
    ]
    run = simload.run_section(args.workload, args.seed, seconds, args.smoke)
    check_fingerprints(args, run)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            "setup_s": median(setup_s),
            "latency_ms": run.pass_seconds * 1000.0,
            "tasks_per_s": run.tasks / run.wall if run.wall else 0.0,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        },
        "detail": {
            "setup_s": setup_s,
            "unit_seconds": run.seconds_by_unit,
            "fingerprints": run.fingerprints,
        },
    }


def time_sim_setup() -> float:
    """Spawn an interpreter that imports the program and runs the warm-up."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only"], check=True
    )
    return time.perf_counter() - started


def traced_sim_workload(args: argparse.Namespace) -> dict:
    """One pass untraced, the same pass traced, and again vectorized.

    A traced run measures fixed work, not a fixed time: its counts are
    then per pass and repeat exactly for a seed, commit after commit.
    """
    import simload
    from layers import RunCounts, install_layers, layer_seconds
    from probes import run_probes
    from tracing import Tracer, self_times, write_spans

    plain = simload.run_section(args.workload, args.seed, None, args.smoke)
    check_fingerprints(args, plain)

    tracer, counts = Tracer(), RunCounts()
    missing = install_layers(tracer, counts)

    def figure_span(_key: str):
        return tracer.span("experiments.figure")

    traced = simload.run_section(
        args.workload, args.seed, None, args.smoke, around_unit=figure_span
    )
    spans = tracer.take()
    metrics = layer_seconds(spans, traced.wall)
    metrics.update(
        counts.metrics(metrics["core.search_s"], metrics["simulator.engine_s"])
    )
    metrics["bench.trace_overhead_share"] = (
        (traced.wall - plain.wall) / plain.wall if plain.wall else 0.0
    )
    if args.trace_out:
        write_spans(spans, args.trace_out)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    # Neither a wrapper nor a kernel may change what a figure computes.
    same_results = traced.fingerprints == plain.fingerprints

    # ROADMAP's kernel question: the same traced pass on the numpy kernel.
    if importlib.util.find_spec("numpy") is None:
        missing.append("core.search_vectorized_s: numpy is not installed")
    else:
        try:
            vector = simload.run_section(
                args.workload, args.seed, None, args.smoke,
                kernel="vectorized", around_unit=figure_span,
            )
        except ValueError as error:  # the kernel is no longer registered
            missing.append(f"core.search_vectorized_s: {error}")
        else:
            search = self_times(tracer.take()).get("core.search")
            metrics["core.search_vectorized_s"] = (
                search["self"] if search else 0.0
            )
            attempted += vector.attempted
            failed += vector.failed
            same_results &= vector.fingerprints == plain.fingerprints
    metrics.update(run_probes())
    if not same_results:
        print("traced or vectorized pass changed the results", file=sys.stderr)
        failed += 1
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "trace_missing": missing,
            "spans": len(spans),
            "plain_pass_s": plain.wall,
            "traced_pass_s": traced.wall,
        },
    }


def check_fingerprints(args: argparse.Namespace, run) -> None:
    """On the pinned seed, compare every result with the committed one."""
    import simload

    if args.seed != DEFAULT_SEED or args.smoke:
        return
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)[args.workload]
    for key in simload.mismatched_fingerprints(run, expected):
        print(f"fingerprint mismatch: {args.workload} {key}", file=sys.stderr)
        run.failed += 1


# ----- the service workload -------------------------------------------------


def serve_workload(args: argparse.Namespace, seconds: float) -> dict:
    import serveload

    run = serveload.run_serve(
        args.seed,
        seconds,
        setups=1 if args.trace else 2 if args.smoke else SERVE_SETUPS,
        trace=args.trace or 0,
        trace_out=args.trace_out or "",
    )
    for problem in run.problems:
        print(f"serve-stream: {problem}", file=sys.stderr)
    for name, stats in run.phases.items():
        if stats.admit_s:
            summary = summarize([s * 1000.0 for s in stats.admit_s])
            print(f"{name}: admission ms {summary}, "
                  f"{stats.accepted}/{stats.submitted} accepted")
    detail = {
        "setup_s": run.setup_s,
        "service": {k: v for k, v in run.service.items() if k != "layers"},
        "phases": {
            name: {
                "seconds": stats.seconds,
                "submitted": stats.submitted,
                "answered": stats.answered,
                "accepted": stats.accepted,
                "hits": stats.hits,
                "late_p99_ms": serveload.ms(stats.late_s, 99),
                "late_max_ms": serveload.ms(stats.late_s, 100),
                "valid": stats.valid,
                "rerun_of_invalid": stats.rerun_of_invalid,
            }
            for name, stats in run.phases.items()
        },
        "invalid_phases": [stats.name for stats in run.invalid],
    }
    if args.trace:
        from probes import run_probes

        metrics = dict(run.service.get("layers", {}))
        metrics.update(serveload.service_layer(run))
        metrics.update(run_probes())
        detail["trace_missing"] = run.service.get("trace_missing", [])
    else:
        metrics = serveload.end_to_end(run)
        metrics["setup_s"] = median(run.setup_s)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": detail,
    }


# ----- reporting ------------------------------------------------------------


def report(workload: str, trace: int, result: dict, specs: List[dict]) -> None:
    """Every metric by name with its unit (and bound, where it has one)."""
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {workload}: {kind} ==")
    for spec in specs:
        value = result["metrics"][spec["name"]]["value"]
        bound = f"  bound {spec['bound']:.0%}" if "bound" in spec else ""
        print(f"{spec['name']:34s} {value:>16.6g} {spec['unit']}{bound}")
    print(
        f"operations: {result['attempted']} attempted, "
        f"{result['failed']} failed -> "
        f"{'correct' if result['correct'] else 'CHECK FAILED'}"
    )
    for key in ("trace_missing", "invalid_phases"):
        if result["detail"].get(key):
            print(f"{key}: {result['detail'][key]}")


def write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload x trace mode in a process of its own; merge the lines."""
    modes = (0, 1) if args.trace is None else (args.trace,)
    results: Dict[str, Dict[str, dict]] = {}
    for name in names:
        for mode in modes:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(mode),
            ]
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.trace_out and mode:
                command += ["--trace-out", f"{args.trace_out}.{name}"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
                del lines[-1]
            except (IndexError, ValueError):  # it died before its result
                result = {
                    "correct": False, "attempted": 1, "failed": 1,
                    "metrics": {},
                }
            print("\n".join(lines), flush=True)
            results.setdefault(name, {})[f"trace{mode}"] = result
    if args.out:
        write_json(args.out, results)
    flat = [r for by_mode in results.values() for r in by_mode.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in flat),
        "attempted": sum(r["attempted"] for r in flat),
        "failed": sum(r["failed"] for r in flat),
        "metrics": {
            f"{name}/{metric}": value
            for name, by_mode in results.items()
            for r in by_mode.values()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in flat) else 1


if __name__ == "__main__":
    sys.exit(main())
