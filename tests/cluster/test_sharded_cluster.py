"""Live sharded clusters: k real masters, real sockets, real migrations.

Two end-to-end runs: a standard two-domain smoke through the public
launcher, and a deterministic forced-migration run (every task misrouted
to domain 0) with full tracing, so the migration protocol, the merged
report, and the trace pipeline's cross-domain attribution are all
exercised against real processes.  Same CI discipline as the other live
tests: fixed seeds, the package-wide hard timeout, and the leaked-child
assertion after every launch.
"""

from __future__ import annotations

import socket
import sys
from dataclasses import replace

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import ClusterConfig, launch_cluster
from repro.experiments import ExperimentConfig
from repro.observability import (
    Instrumentation,
    JsonlSink,
    attribute_misses,
    read_jsonl,
    render_attribution,
)


def assert_port_released(port: int) -> None:
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


def count_master_side_builds(monkeypatch) -> list:
    """Record every in-process ``build_cluster_workload`` call (workers
    rebuild theirs in their own processes and are not seen here)."""
    from repro.cluster.config import build_cluster_workload as original

    seeds: list = []

    def counting(experiment, seed):
        seeds.append(seed)
        return original(experiment, seed)

    # ``from x import f`` copies the reference: patch every module that did.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and (
            getattr(module, "build_cluster_workload", None) is original
        ):
            monkeypatch.setattr(module, "build_cluster_workload", counting)
    return seeds


def _forced_migration_config() -> ClusterConfig:
    """Tight slack + a small wall-clock scale: offers are inevitable once
    the router piles all forty tasks onto domain 0's two workers."""
    experiment = ExperimentConfig.quick(
        num_transactions=40,
        num_processors=4,
        base_seed=7,
        slack_factor=1.4,
        runs=1,
    ).with_domains(2)
    return ClusterConfig(
        experiment=experiment,
        heartbeat_interval=0.15,
        max_wall_seconds=90.0,
        seconds_per_unit=0.0005,
    )


class TestLiveShardedCluster:
    def test_two_domain_smoke_through_the_launcher(
        self, monkeypatch, assert_no_leaked_children
    ):
        """launch_cluster partitions on experiment.domains; the workload is
        built once on the master side however many masters share it."""
        config = ClusterConfig.smoke(workers=4, tasks=24, seed=7)
        config = replace(
            config, experiment=config.experiment.with_domains(2)
        )
        builds = count_master_side_builds(monkeypatch)
        report = launch_cluster(config)

        assert builds == [config.experiment.base_seed]

        assert report.backend == "cluster"
        assert report.total_tasks == 24
        assert report.completed + report.expired == report.total_tasks
        assert report.guaranteed_violations == 0
        assert report.workers_lost == 0
        # The merged report carries the sharding identity.
        assert len(report.extras["partition"]["domains"]) == 2
        section = report.migration
        assert (
            section["offers"]
            == section["accepted"] + section["declined"] + section["timeouts"]
        )
        # One extras shape at every k: ``port`` is domain 0's.
        assert report.port == report.extras["ports"][0]
        for port in report.extras["ports"]:
            assert_port_released(port)

    def test_pinned_port_goes_to_domain_zero(self, assert_no_leaked_children):
        """A pinned port (the sweep engine leases them) must not be bound
        by every domain's master: domain 0 takes it, its peers bind
        ephemeral ports, and every listener is gone afterwards."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        pinned = probe.getsockname()[1]
        probe.close()
        config = ClusterConfig.smoke(workers=4, tasks=16, seed=7)
        config = replace(
            config,
            port=pinned,
            experiment=config.experiment.with_domains(2),
        )
        try:
            report = launch_cluster(config)
        finally:
            assert_port_released(pinned)

        assert report.completed + report.expired == report.total_tasks == 16
        ports = report.extras["ports"]
        assert ports[0] == pinned
        assert len(set(ports)) == 2
        for port in ports:
            assert_port_released(port)

    def test_forced_migration_accounts_and_attributes(
        self, tmp_path, assert_no_leaked_children
    ):
        """Misroute everything to domain 0: offers must flow to domain 1
        over the real protocol, the ledger must balance, and the merged
        trace must attribute every miss — migrated ones labelled."""
        trace_path = tmp_path / "sharded.jsonl"
        sink = JsonlSink(trace_path)
        obs = Instrumentation(sink=sink)
        try:
            report = launch_cluster(
                _forced_migration_config(),
                instrumentation=obs,
                router=lambda task: 0,
            )
        finally:
            sink.close()

        section = report.migration
        assert section["offers"] > 0
        assert section["accepted"] >= 1  # domain 1 starts idle
        assert (
            section["offers"]
            == section["accepted"] + section["declined"] + section["timeouts"]
        )
        assert sum(section["out_by_domain"].values()) == section["offers"]
        assert sum(section["in_by_domain"].values()) == section["accepted"]
        # Guarantee accounting absorbed the handoffs without double counts.
        assert report.total_tasks == 40
        assert (
            report.completed + report.expired + report.failed
            == report.total_tasks
        )
        for port in report.extras["ports"]:
            assert_port_released(port)

        events = read_jsonl(trace_path)
        run_end = [e for e in events if e.get("event") == "run_end"]
        assert len(run_end) == 1
        assert run_end[0]["domains"] == 2
        assert run_end[0]["migrations"] == section["accepted"]
        assert "telemetry_dropped" in run_end[0]

        attribution = attribute_misses(events)
        assert attribution.total_tasks == 40
        # 100% attribution: every miss gets exactly one known cause.
        assert sum(attribution.by_cause.values()) == len(attribution.misses)
        if attribution.misses:
            assert "100% attributed" in render_attribution(attribution)
        migrated = [m for m in attribution.misses if m.migration]
        for miss in migrated:
            assert miss.migration == "0->1"
        assert attribution.migrated_misses == len(migrated)
