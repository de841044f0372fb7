"""Scale smoke tests: the paper-sized burst runs whole and stays sane."""

import multiprocessing
import signal
import socket
import time

import pytest

pytestmark = pytest.mark.slow

from repro.experiments import ExperimentConfig, run_once


class TestPaperScaleSmoke:
    @pytest.fixture(scope="class")
    def result(self):
        config = ExperimentConfig.paper(runs=1)
        started = time.perf_counter()
        result = run_once(config, "rtsads", config.base_seed)
        result.wall_seconds = time.perf_counter() - started
        return result

    def test_thousand_task_burst_completes(self, result):
        assert result.total_tasks == 1000

    def test_every_task_terminal(self, result):
        from repro.runtime.ledger import COMPLETED, EXPIRED

        for record in result.trace.records.values():
            assert record.status in (COMPLETED, EXPIRED)

    def test_theorem_at_scale(self, result):
        assert result.trace.scheduled_but_missed() == []

    def test_nontrivial_compliance(self, result):
        # The overloaded paper burst caps out near 30%; a collapse below
        # 10% or an impossible >40% both indicate calibration regressions.
        assert 0.10 < result.hit_ratio < 0.40

    def test_event_count_bounded(self, result):
        # Each task contributes O(1) events plus phases; a blow-up here
        # means the host loop is thrashing.
        assert result.events_dispatched < 100_000

    def test_runs_in_reasonable_wall_time(self, result):
        # ~1-2s typical; 30s signals an accidental complexity regression.
        assert result.wall_seconds < 30.0


@pytest.fixture
def cluster_hard_timeout():
    """SIGALRM guard: a wedged live run aborts instead of hanging CI."""

    def _alarm(signum, frame):  # pragma: no cover - only fires on a hang
        raise TimeoutError("live cluster smoke exceeded 120s hard timeout")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestClusterLauncherTeardown:
    """The live launcher must never leak processes or sockets, on any path."""

    def test_clean_run_reaps_workers_and_frees_port(
        self, cluster_hard_timeout
    ):
        from repro.cluster import ClusterConfig, launch_cluster

        before = set(multiprocessing.active_children())
        config = ClusterConfig.smoke(workers=2, tasks=10, seed=5)
        report = launch_cluster(config)

        # No orphan worker processes survive the launcher's finally block.
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p not in before and p.is_alive()
        ]
        for process in leaked:
            process.terminate()
        assert leaked == []

        # The master's listening socket is closed: the port rebinds now.
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", report.port))
        finally:
            probe.close()

        assert report.completed + report.expired == report.total_tasks

    def test_worker_crash_still_tears_down_cleanly(
        self, cluster_hard_timeout
    ):
        from repro.cluster import ClusterConfig, FailurePlan, launch_cluster

        before = set(multiprocessing.active_children())
        config = ClusterConfig.smoke(
            workers=2,
            tasks=12,
            seed=5,
            failure=FailurePlan(worker_index=0, after_seconds=0.5),
        )
        report = launch_cluster(config)

        leaked = [
            p
            for p in multiprocessing.active_children()
            if p not in before and p.is_alive()
        ]
        for process in leaked:
            process.terminate()
        assert leaked == []
        assert report.workers_lost == 1
