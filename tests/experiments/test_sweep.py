"""Tests for the parallel sweep engine (experiments/sweep.py).

The engine's contract is determinism: the same cells aggregate to
bit-identical results no matter the worker count or how the workers
start (the actual pool is exercised with a tiny workload; the
figure-level bytes are pinned in ``test_one_engine.py``), and a pooled
cell reports the same trace events and counters as an in-parent one.
"""

import dataclasses
import pickle
import threading

import pytest

from repro.experiments import ExperimentConfig, run_grid, sweep
from repro.experiments.runner import run_once
from repro.experiments.sweep import CellRecord

#: Small enough that a full grid stays under a second on one core.
TINY = dict(num_transactions=30, runs=2)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return ExperimentConfig.quick(**params)


class TestCellRecord:
    def test_round_trips_exactly_through_pickle(self):
        """A pool child returns the record itself."""
        config = tiny_config(runs=1)
        report = run_once(config, "rtsads", config.seeds()[0])
        record = CellRecord.from_report(report, elapsed_seconds=0.125)
        # Bitwise equality, not approx: byte-identical figure output
        # depends on it.
        assert pickle.loads(pickle.dumps(record)) == record

    def test_captures_the_aggregation_inputs(self):
        config = tiny_config(runs=1)
        report = run_once(config, "rtsads", config.seeds()[0])
        record = CellRecord.from_report(report)
        assert record.hit_percent == report.hit_percent
        assert record.makespan == report.makespan
        assert record.guaranteed_violations == report.guaranteed_violations
        assert record.backend == report.backend
        assert record.elapsed_seconds == 0.0


class TestRunGrid:
    def test_matches_the_serial_runner_exactly(self):
        """The engine folds exactly what ``run_once`` reports, seed by
        seed (figure-level bytes: tests/experiments/test_one_engine.py)."""
        config = tiny_config()
        reports = [run_once(config, "rtsads", seed) for seed in config.seeds()]
        swept = run_grid([(config, "rtsads")], jobs=1).cells[0]
        assert swept.hit_percents == [r.hit_percent for r in reports]
        assert swept.makespans == [r.makespan for r in reports]
        assert swept.scheduling_times == [
            r.total_scheduling_time for r in reports
        ]
        assert swept.regrets == [r.regret for r in reports]
        assert swept.scheduled_but_missed == sum(
            r.guaranteed_violations for r in reports
        )

    def test_a_pooled_sweep_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_grid([(tiny_config(), "rtsads")], jobs=2)
        assert list(tmp_path.iterdir()) == []

    def test_execution_knobs_default_from_the_first_config(self):
        config = tiny_config(jobs=2)
        outcome = run_grid([(config, "rtsads")])
        assert outcome.stats.jobs == 2
        assert outcome.stats.total_cells == config.runs

    def test_empty_specs(self):
        outcome = run_grid([])
        assert outcome.cells == []
        assert outcome.stats.total_cells == 0

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_grid([(tiny_config(), "rtsads")], jobs=0)

    def test_multi_spec_order_is_call_order(self):
        config = tiny_config()
        outcome = run_grid([(config, "dcols"), (config, "rtsads")], jobs=1)
        assert [cell.scheduler_name for cell in outcome.cells] == [
            "dcols",
            "rtsads",
        ]
        assert all(cell.config is config for cell in outcome.cells)


@pytest.mark.slow
class TestSpawnPool:
    """The real multiprocessing path: expensive, so one test covers it."""

    def test_pool_results_identical_to_serial(self):
        config = tiny_config()
        serial = run_grid([(config, "rtsads")], jobs=1)
        pooled = run_grid([(config, "rtsads")], jobs=2)
        assert pooled.stats.jobs == 2
        assert pooled.cells[0].hit_percents == serial.cells[0].hit_percents
        assert pooled.cells[0].makespans == serial.cells[0].makespans
        assert (
            pooled.cells[0].scheduling_times
            == serial.cells[0].scheduling_times
        )

    def test_seeds_identical_under_any_job_count(self):
        """The pool distributes config.seeds(); it never generates seeds."""
        config = tiny_config()
        serial = run_grid([(config, "rtsads")], jobs=1)
        pooled = run_grid([(config, "rtsads")], jobs=3)
        # Same per-seed values in the same order proves the same seeds ran
        # in the same positions regardless of worker count.
        assert pooled.cells[0].hit_percents == serial.cells[0].hit_percents
        assert pooled.cells[0].dead_end_rates == serial.cells[0].dead_end_rates

    def test_workers_spawn_beside_another_thread(self):
        """A fork copies one thread; a lock another held would stay held."""
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert sweep._start_method() == "spawn"
        finally:
            release.set()
            other.join()

    @pytest.mark.slow
    def test_cell_summary_does_not_depend_on_how_workers_start(
        self, monkeypatch
    ):
        """A forked worker holds a copy of the parent's registry; it must
        count into it no more than a spawned one, which has none."""
        from repro.observability import (
            OFF,
            Instrumentation,
            StructuredLogger,
            instrumented,
        )

        def summary():
            obs = Instrumentation(logger=StructuredLogger(level=OFF))
            with instrumented(obs):
                run_grid([(tiny_config(), "rtsads")], jobs=2)
            return obs.cells

        default = summary()
        monkeypatch.setattr(sweep, "_start_method", lambda: "spawn")
        assert summary() == default


def _traced_grid(jobs, sink=True):
    """Run one tiny grid under fresh instrumentation; return (obs, outcome).

    ``sink=False`` instruments without a trace sink, as ``--metrics-out``
    alone does.
    """
    from repro.observability import (
        OFF,
        Instrumentation,
        MemorySink,
        StructuredLogger,
        instrumented,
    )

    config = tiny_config()
    obs = Instrumentation(
        sink=MemorySink() if sink else None,
        logger=StructuredLogger(level=OFF),
    )
    with instrumented(obs):
        outcome = run_grid([(config, "rtsads")], jobs=jobs)
    return obs, outcome


def _event_keys(sink):
    """Order-insensitive identity of every traced event (sorted multiset)."""
    return sorted(
        (
            event.get("event"),
            event.get("task_id"),
            event.get("transition"),
            event.get("name"),
            event.get("seed"),
        )
        for event in sink.events
        if event.get("event") in ("run_start", "run_end", "task", "span")
    )


class TestSweepTracing:
    """The spawn pool must not lose trace events or counter deltas."""

    @pytest.mark.slow
    def test_pool_emits_the_same_event_set_as_serial(self):
        """--trace-out --jobs N captures every cell's events; only the
        completion order may differ from --jobs 1."""
        serial_obs, _ = _traced_grid(jobs=1)
        pooled_obs, _ = _traced_grid(jobs=2)
        assert len(pooled_obs.sink.events) > 0
        assert _event_keys(pooled_obs.sink) == _event_keys(serial_obs.sink)

    @pytest.mark.slow
    def test_pool_cell_counters_match_serial(self):
        """Counter deltas captured in pool children equal the in-parent
        deltas of a serial run, traced (``--trace-out``) or not
        (``--metrics-out`` alone)."""
        for sink in (True, False):
            serial_obs, _ = _traced_grid(jobs=1, sink=sink)
            pooled_obs, _ = _traced_grid(jobs=2, sink=sink)
            serial_counters = serial_obs.cells[0]["counters"]
            pooled_counters = pooled_obs.cells[0]["counters"]
            assert serial_counters, sink  # the run must move counters
            assert pooled_counters == serial_counters, sink


@pytest.mark.slow
class TestClusterCells:
    """Live-cluster cells: never pooled, serialized on the port pool."""

    def test_cluster_cells_execute_in_the_parent(self, monkeypatch):
        config = ExperimentConfig.quick(
            num_transactions=16,
            num_processors=2,
            slack_factor=3.0,
            runs=1,
            base_seed=7,
            backend="cluster",
        )
        # jobs=4 requested, but a cluster cell spawns its own processes
        # and binds a listener, so the engine must run it in the parent.
        monkeypatch.setattr(sweep, "_run_in_pool", None)  # never called
        out = run_grid([(config, "rtsads")], jobs=4)
        assert len(out.cells[0].hit_percents) == 1
        assert out.cells[0].config.backend == "cluster"


class TestConfigExecutionFields:
    def test_defaults_are_serial_and_uncached(self):
        config = ExperimentConfig.quick()
        assert config.jobs == 1
        fields = {spec.name for spec in dataclasses.fields(config)}
        assert not {name for name in fields if "cache" in name}

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.quick(jobs=0)
        with pytest.raises(TypeError):
            ExperimentConfig.quick(resume=True)  # not a field
