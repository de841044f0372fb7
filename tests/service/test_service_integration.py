"""End-to-end service runs: elastic joins, fail-stop, SIGTERM, traces.

These drive :func:`repro.service.run_service` the way the CLI does —
real worker processes, a real load generator on the wire — and assert
the service-mode invariants: every submission settles, membership
changes are absorbed, and a traced run attributes every deadline miss.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import ClusterConfig, FailurePlan
from repro.observability import (
    Instrumentation,
    JsonlSink,
    attribute_misses,
    read_jsonl,
)
from repro.service import (
    JoinPlan,
    LoadSpec,
    ServiceClient,
    ServiceConfig,
    ServiceFront,
    run_load,
    run_service,
)

from .kept_state import assert_kept_state_is_snapshot


def smoke_service(workers=2, tasks=24, seed=7, **overrides) -> ServiceConfig:
    cluster = ClusterConfig.smoke(workers=workers, tasks=tasks, seed=seed)
    return ServiceConfig(cluster=cluster, **overrides)


def make_driver(spec: LoadSpec, holder: dict):
    """A drive_load callable that parks its LoadReport in ``holder``."""

    def _drive(host: str, port: int) -> None:
        holder["report"] = run_load(host, port, spec)

    return _drive


class TestServiceUnderLoad:
    def test_elastic_join_and_failstop_absorb_load(
        self, assert_no_leaked_children, monkeypatch
    ):
        """One worker joins mid-run, another fail-stops; the stream keeps
        settling and the books balance on both sides of the wire — and
        after every step the front's kept admission state equals a walk
        of its records, requeued work included."""
        finished = ServiceFront.finished

        def checked_finished(front, master_done):
            assert_kept_state_is_snapshot(front)
            return finished(front, master_done)

        monkeypatch.setattr(ServiceFront, "finished", checked_finished)
        service = ServiceConfig(
            cluster=ClusterConfig.smoke(
                workers=2,
                tasks=24,
                failure=FailurePlan(worker_index=1, after_seconds=0.8),
            )
        )
        spec = LoadSpec(
            experiment=service.cluster.experiment,
            arrival="burst",
            offered_load=1.0,
            submissions=24,
            seed=3,
            seconds_per_unit=service.cluster.seconds_per_unit,
        )
        holder: dict = {}
        report = run_service(
            service,
            joins=[JoinPlan(worker_index=2, after_seconds=0.4)],
            drive_load=make_driver(spec, holder),
        )
        load = holder["report"]
        assert load.submitted == 24
        assert load.unsettled == 0
        assert load.accepted + load.rejected == load.submitted
        # Client-side and master-side ledgers must agree.
        assert report.extras["submitted"] == load.submitted
        assert report.extras["accepted"] == load.accepted
        # Both membership events really happened.
        assert report.extras["distinct_workers"] == 3
        assert report.workers_lost >= 1
        # Fail-stop surrenders guarantees; it never violates them.
        assert report.guaranteed_violations == 0

    def test_concurrent_clients_offer_one_shared_stream(
        self, assert_no_leaked_children
    ):
        """--clients N deals the same stream over N connections: the
        union of submissions is unchanged and both ledgers still agree."""
        service = smoke_service(workers=2, tasks=24)
        spec = LoadSpec(
            experiment=service.cluster.experiment,
            arrival="burst",
            offered_load=1.0,
            submissions=24,
            seed=3,
            seconds_per_unit=service.cluster.seconds_per_unit,
            clients=3,
        )
        holder: dict = {}
        report = run_service(service, drive_load=make_driver(spec, holder))
        load = holder["report"]
        assert load.submitted == 24
        assert load.unsettled == 0
        assert load.accepted + load.rejected == load.submitted
        assert report.extras["submitted"] == load.submitted
        assert report.extras["accepted"] == load.accepted

    def test_nonpositive_clients_rejected(self):
        with pytest.raises(ValueError, match="clients"):
            LoadSpec(
                experiment=ClusterConfig.smoke().experiment, clients=0
            )

    def test_traced_run_fully_attributes_every_miss(
        self, tmp_path, assert_no_leaked_children
    ):
        trace_path = tmp_path / "service-trace.jsonl"
        service = smoke_service(workers=2, tasks=16)
        spec = LoadSpec(
            experiment=service.cluster.experiment,
            arrival="poisson",
            offered_load=1.5,  # overload on purpose: we want misses
            submissions=24,
            seed=11,
            seconds_per_unit=service.cluster.seconds_per_unit,
        )
        holder: dict = {}
        obs = Instrumentation(sink=JsonlSink(os.fspath(trace_path)))
        try:
            report = run_service(
                service,
                instrumentation=obs,
                drive_load=make_driver(spec, holder),
            )
        finally:
            obs.close()
        assert holder["report"].unsettled == 0
        events = read_jsonl(os.fspath(trace_path))
        assert events, "traced run produced no events"
        attribution = attribute_misses(events)
        # Every accepted submission reached a terminal state in the trace,
        # and every miss carries a cause — nothing vanishes unexplained.
        assert attribution.total_tasks == report.extras["accepted"]
        assert sum(attribution.outcomes.values()) == attribution.total_tasks
        miss_ids = [m.task_id for m in attribution.misses]
        assert len(miss_ids) == len(set(miss_ids)), (
            "a task was attributed twice"
        )
        for miss in attribution.misses:
            assert miss.cause, f"miss {miss.task_id} has no cause"


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_cleanly(
        self, tmp_path, assert_no_leaked_children
    ):
        """`repro serve` under SIGTERM: every in-flight submission settles
        (completed or surrendered) and the process exits 0."""
        serve = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "serve",
                "--workers",
                "2",
                "--transactions",
                "16",
                "--time-scale",
                "0.02",  # slow clock: work is genuinely in flight at kill
                "--drain-grace",
                "2.0",
                "--verbose",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        client = None
        try:
            port = self._scrape_port(serve)
            client = ServiceClient.connect("127.0.0.1", port)
            for template_id in range(8):
                client.submit(template_id)
            client.poll(0.3)  # let ACCEPTs land before the kill
            serve.send_signal(signal.SIGTERM)
            assert client.drain(timeout=60.0), (
                "submissions left unsettled across SIGTERM: "
                f"{[o.request_id for o in client.unsettled()]}"
            )
            statuses = {
                o.status for o in client.outcomes.values() if o.accepted
            }
            assert statuses <= {"completed", "expired", "surrendered"}
            stdout, _stderr = serve.communicate(timeout=60)
        finally:
            if client is not None:
                client.close()
            if serve.poll() is None:
                serve.kill()
                serve.communicate(timeout=30)
        assert serve.returncode == 0, stdout
        assert "service backend" in stdout

    @staticmethod
    def _scrape_port(serve: subprocess.Popen) -> int:
        """The bound port, from the structured 'cluster ready' log line."""
        lines = []
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = serve.stderr.readline()
            if not line:
                if serve.poll() is not None:
                    break
                time.sleep(0.05)
                continue
            lines.append(line)
            match = re.search(r"port=(\d+)", line)
            if match:
                return int(match.group(1))
        raise AssertionError(
            "serve never reported its port:\n" + "".join(lines)
        )
