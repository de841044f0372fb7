"""One experiment cell on both backends: identical RunReport schema.

This is the acceptance test of the runtime unification: a single
``ExperimentConfig`` dispatched through ``run_once`` to the simulator and
to the live TCP cluster must come back as the same ``RunReport`` shape —
identical exported keys, identical value types — so the export and figure
pipeline never needs to know where a run executed.  CI runs this same
matrix as a dedicated smoke job.
"""

from __future__ import annotations

import json
import signal

import pytest

pytestmark = pytest.mark.slow

from repro.experiments import ExperimentConfig, run_once
from repro.metrics import report_to_json


@pytest.fixture
def hard_timeout():
    """SIGALRM guard: a wedged live run aborts instead of hanging CI."""

    def _alarm(signum, frame):  # pragma: no cover - only fires on a hang
        raise TimeoutError("backend matrix exceeded 120s hard timeout")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def cell():
    """A tiny, comfortably feasible cell both backends finish in seconds."""
    return ExperimentConfig.quick(
        num_transactions=16,
        num_processors=2,
        slack_factor=3.0,
        runs=1,
        base_seed=7,
    )


class TestBackendMatrix:
    def test_same_cell_same_schema_on_both_backends(self, cell, hard_timeout):
        sim = run_once(cell, "rtsads", cell.base_seed, backend="sim")
        live = run_once(cell, "rtsads", cell.base_seed, backend="cluster")

        sim_doc = json.loads(report_to_json(sim))
        live_doc = json.loads(report_to_json(live))

        # Identical keys...
        assert sorted(sim_doc) == sorted(live_doc)
        # ...and identical JSON types, phase records included.
        for key in sim_doc:
            assert type(sim_doc[key]) is type(live_doc[key]), key
        assert sim_doc["phases"] and live_doc["phases"]
        for key in sim_doc["phases"][0]:
            assert type(sim_doc["phases"][0][key]) is type(
                live_doc["phases"][0][key]
            ), f"phases[0].{key}"

        # Both saw the same workload and honored the theorem.
        assert sim_doc["backend"] == "sim"
        assert live_doc["backend"] == "cluster"
        assert sim_doc["total_tasks"] == live_doc["total_tasks"] == 16
        assert sim_doc["guaranteed_violations"] == 0
        assert live_doc["guaranteed_violations"] == 0
        sim.check_balance()
        live.check_balance()

    @pytest.mark.parametrize("domains", [1, 2])
    @pytest.mark.parametrize(
        "backend", ["sim", "sharded", "cluster", "service"]
    )
    def test_the_books_balance_on_every_backend(
        self, cell, hard_timeout, backend, domains
    ):
        """One balance check, the report's own, wherever the run executed:
        every task a ledger opened reached exactly one terminal count."""
        report = run_once(
            cell.with_domains(domains), "rtsads", cell.base_seed,
            backend=backend,
        )
        report.check_balance()
        assert report.total_tasks == 16
        assert report.guaranteed_violations == 0
        if backend == "service":
            extras = report.extras
            assert extras["submitted"] == 16 and extras["open"] == 0
        else:
            assert report.failed == 0
