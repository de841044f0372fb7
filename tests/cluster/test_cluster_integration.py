"""End-to-end live runs: real processes, real sockets, real execution.

Determinism discipline for CI: fixed seeds, generous deadlines (SF=3),
small workloads, the package-wide SIGALRM hard timeout, and an explicit
no-leaked-children assertion after every launch.
"""

from __future__ import annotations

import socket

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import (
    ClusterConfig,
    FailurePlan,
    launch_cluster,
)
from repro.observability import (
    Instrumentation,
    JsonlSink,
    MemorySink,
    read_jsonl,
)


def assert_port_released(port: int) -> None:
    """The master's listener must be gone the moment launch returns."""
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


class TestLiveCluster:
    def test_smoke_run_completes_with_full_accounting(
        self, assert_no_leaked_children
    ):
        config = ClusterConfig.smoke(workers=2, tasks=24, seed=7)
        report = launch_cluster(config)

        # Every task reached exactly one terminal state.
        assert report.completed + report.expired == report.total_tasks
        assert report.total_tasks == 24
        # The theorem under test: dispatched guarantees hold on the wall
        # clock.  With no injected failure nothing may be lost either.
        assert report.guaranteed_violations == 0
        assert report.workers_lost == 0
        assert report.reschedules == 0
        # Generous-deadline smoke workload schedules comfortably; anything
        # below this means the live path is broken, not merely jittery.
        assert report.hit_ratio >= 0.5
        assert report.guarantee_ratio >= report.hit_ratio - 1e-9
        assert report.num_phases >= 1
        assert report.wall_seconds < config.max_wall_seconds
        assert_port_released(report.port)

    def test_one_domain_run_is_the_papers_machine(
        self, tmp_path, assert_no_leaked_children
    ):
        """k=1 goes through the same coordinator as k>1 and must not show
        it (the simulator's rule): no migration ledger, no domain fields
        anywhere in the trace, and the one ``extras`` shape."""
        config = ClusterConfig.smoke(workers=2, tasks=16, seed=7)
        trace_path = tmp_path / "k1.jsonl"
        sink = JsonlSink(trace_path)
        try:
            report = launch_cluster(
                config, instrumentation=Instrumentation(sink=sink)
            )
        finally:
            sink.close()

        assert report.migration == {}
        assert set(report.extras) == {"port", "ports", "partition"}
        assert report.extras["ports"] == [report.port]
        assert report.extras["partition"]["domains"] == [[0, 1]]
        assert report.completed + report.expired == report.total_tasks == 16

        events = read_jsonl(trace_path)
        master_events = [e for e in events if e.get("component") == "master"]
        assert master_events
        assert not [e for e in master_events if "domain" in e]
        (run_start,) = [e for e in events if e["event"] == "run_start"]
        (run_end,) = [e for e in events if e["event"] == "run_end"]
        assert run_start["component"] == run_end["component"] == "master"
        assert (run_start["workers"], run_start["tasks"]) == (2, 16)
        for header in (run_start, run_end):
            assert not {"domains", "partition_policy", "migrations"} & set(
                header
            )
        assert run_end["tasks"] == 16
        assert "telemetry_dropped" in run_end
        assert_port_released(report.port)

    def test_deterministic_workload_across_runs(
        self, assert_no_leaked_children
    ):
        """Same seed, same config => same task population and guarantees
        (completion timing may jitter, the guarantee decision may not in a
        comfortably feasible workload)."""
        config = ClusterConfig.smoke(workers=2, tasks=16, seed=3)
        first = launch_cluster(config)
        second = launch_cluster(config)
        assert first.total_tasks == second.total_tasks
        assert first.guaranteed_violations == 0
        assert second.guaranteed_violations == 0
        assert_port_released(first.port)
        assert_port_released(second.port)

    def test_worker_failure_degrades_gracefully(
        self, assert_no_leaked_children
    ):
        """Kill one worker mid-run: the master must detect the silence,
        reschedule the surrendered queue, and still finish cleanly."""
        config = ClusterConfig.smoke(
            workers=3,
            tasks=48,
            seed=11,
            failure=FailurePlan(worker_index=1, after_seconds=0.8),
        )
        obs = Instrumentation(sink=MemorySink())
        report = launch_cluster(config, instrumentation=obs)

        assert report.workers_lost == 1
        # The dead worker's queue was surrendered and re-entered the batch:
        # one ``surrendered`` transition per reschedule, as on the simulator.
        assert report.reschedules >= 1
        surrendered = [
            event for event in obs.sink.of_kind("task")
            if event["transition"] == "surrendered"
        ]
        assert len(surrendered) == report.reschedules
        assert {event["processor"] for event in surrendered} == {1}
        report.check_balance()
        # Surrender revokes the guarantee, so even the disrupted run keeps
        # the theorem intact.
        assert report.guaranteed_violations == 0
        assert report.completed + report.expired == report.total_tasks
        # Survivors kept working: the run did not collapse with the worker.
        assert report.completed > 0
        assert_port_released(report.port)


class TestClusterCli:
    def test_cluster_is_a_cli_choice_but_not_in_all(self):
        from repro.experiments.cli import EXPERIMENTS, build_parser

        assert "cluster" not in EXPERIMENTS  # "all" stays simulation
        args = build_parser().parse_args(
            ["cluster", "--workers", "2", "--tasks", "40", "--seed", "1"]
        )
        assert args.experiment == "cluster"
        assert args.processors == 2  # --workers is its other spelling
        assert args.transactions == 40  # and --tasks this one's
        assert args.seed == 1

    def test_kill_worker_flag_parses_into_plan(self):
        from repro.cluster import FailurePlan

        plan = FailurePlan.parse("1@0.5")
        assert plan.worker_index == 1
        assert plan.after_seconds == 0.5

    def test_cli_end_to_end_prints_both_ratios(
        self, capsys, assert_no_leaked_children
    ):
        from repro.experiments.cli import main

        rc = main(
            [
                "cluster",
                "--workers",
                "2",
                "--tasks",
                "12",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "guarantee ratio:" in out
        assert "compliance ratio:" in out
