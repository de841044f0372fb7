"""Tests for the parallel sweep engine (experiments/sweep.py).

The suite covers the three contracts the engine exists for:

* determinism — the same cells aggregate to bit-identical results no
  matter the worker count, how the workers start, or the cache state
  (including the actual pool, exercised once with a tiny workload; the
  figure-level bytes are pinned in ``test_one_engine.py``);
* cache identity — a change to any field a run reads invalidates cached
  cells, while execution knobs (jobs, cache_dir) and the statistics block
  (runs, base_seed) never do;
* resilience — torn or schema-mismatched cache files count as misses,
  never as errors.
"""

import dataclasses
import json
import threading

import pytest

from repro.experiments import ExperimentConfig, run_grid, sweep
from repro.experiments.runner import run_cell, run_once
from repro.experiments.sweep import (
    CACHE_SCHEMA_VERSION,
    CellRecord,
    SweepCache,
    SweepCell,
    config_digest,
)

#: Small enough that a full grid stays under a second on one core.
TINY = dict(num_transactions=30, runs=2)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return ExperimentConfig.quick(**params)


class TestCellRecord:
    def test_round_trips_exactly_through_json(self):
        config = tiny_config(runs=1)
        report = run_once(config, "rtsads", config.seeds()[0])
        record = CellRecord.from_report(report, elapsed_seconds=0.125)
        payload = json.loads(json.dumps(record.as_dict()))
        rebuilt = CellRecord.from_dict(payload)
        # Bitwise equality, not approx: JSON floats round-trip via repr,
        # and byte-identical figure output depends on it.
        assert rebuilt == record

    def test_captures_the_aggregation_inputs(self):
        config = tiny_config(runs=1)
        report = run_once(config, "rtsads", config.seeds()[0])
        record = CellRecord.from_report(report)
        assert record.hit_percent == report.hit_percent
        assert record.makespan == report.makespan
        assert record.guaranteed_violations == report.guaranteed_violations
        assert record.backend == report.backend
        assert record.elapsed_seconds == 0.0


class TestConfigDigest:
    def test_stable_across_calls(self):
        config = tiny_config()
        assert config_digest(config) == config_digest(config)

    def test_every_workload_field_changes_the_digest(self):
        """A change to any field a run reads must invalidate cached cells,
        and a change to any other field must not."""
        base = tiny_config()
        baseline = config_digest(base)
        unread = {
            "runs": 3,
            "base_seed": 1999,
            "jobs": 8,
            "cache_dir": "elsewhere",
        }
        bumped = {
            "num_transactions": 31,
            "slack_factor": 1.5,
            "num_subdatabases": 11,
            "records_per_subdb": 201,
            "num_attributes": 11,
            "domain_size": 21,
            "key_probability": 0.5,
            "num_processors": 9,
            "replication_rate": 0.4,
            "remote_cost": 81.0,
            "per_vertex_cost": 0.03,
            "backend": "cluster",
            "scheduler": "edf",
            "arrival": "poisson",
            "offered_load": 1.4,
            "admission_policy": "least-slack",
            "domains": 2,
            "partition_policy": "worst-fit",
        }
        assert set(base.cache_fields()) == set(bumped), (
            "a new ExperimentConfig field joined cache_fields(); "
            "extend this test with a bumped value for it"
        )
        # "kernel" has one legal value ("scalar"), so it cannot be bumped.
        every_field = {spec.name for spec in dataclasses.fields(base)}
        assert every_field == set(bumped) | set(unread) | {"kernel"}
        for name, value in bumped.items():
            changed = dataclasses.replace(base, **{name: value})
            assert config_digest(changed) != baseline, name
        for name, value in unread.items():
            changed = dataclasses.replace(base, **{name: value})
            assert config_digest(changed) == baseline, name

    def test_execution_fields_never_change_the_digest(self):
        base = tiny_config()
        tweaked = dataclasses.replace(base, jobs=8, cache_dir="elsewhere")
        assert config_digest(tweaked) == config_digest(base)


class TestSweepCache:
    def _record(self, **overrides):
        values = dict(
            scheduler_name="rtsads",
            seed=1998,
            backend="sim",
            hit_percent=75.0,
            dead_end_rate=0.1,
            mean_depth=3.0,
            mean_processors_touched=2.5,
            total_scheduling_time=10.0,
            makespan=100.0,
            guaranteed_violations=0,
            num_phases=4,
            wall_seconds=0.01,
        )
        values.update(overrides)
        return CellRecord(**values)

    def test_store_then_load(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell(tiny_config(), "rtsads", 1998)
        record = self._record()
        cache.store(cell, record)
        assert cache.load(cell) == record

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell(tiny_config(), "rtsads", 1998)
        assert cache.load(cell) is None

    def test_torn_file_is_a_miss_not_an_error(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell(tiny_config(), "rtsads", 1998)
        path = cache.cell_path(cell)
        path.parent.mkdir(parents=True)
        path.write_text('{"schema": 1, "record": {"hit', encoding="utf-8")
        assert cache.load(cell) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell(tiny_config(), "rtsads", 1998)
        cache.store(cell, self._record())
        payload = json.loads(cache.cell_path(cell).read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        cache.cell_path(cell).write_text(json.dumps(payload))
        assert cache.load(cell) is None

    def test_writes_a_config_manifest(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell(tiny_config(), "rtsads", 1998)
        cache.store(cell, self._record())
        manifest = cache.cell_path(cell).parent / "config.json"
        fields = json.loads(manifest.read_text())
        assert fields["num_transactions"] == TINY["num_transactions"]
        assert "jobs" not in fields

    def test_different_configs_never_collide(self, tmp_path):
        cache = SweepCache(tmp_path)
        one = SweepCell(tiny_config(), "rtsads", 1998)
        two = SweepCell(tiny_config(slack_factor=2.0), "rtsads", 1998)
        assert cache.cell_path(one) != cache.cell_path(two)


class TestRunGrid:
    def test_matches_the_serial_runner_exactly(self, tmp_path):
        """The engine folds exactly what ``run_once`` reports, seed by
        seed (figure-level bytes: tests/experiments/test_one_engine.py)."""
        config = tiny_config()
        reports = [run_once(config, "rtsads", seed) for seed in config.seeds()]
        swept = run_grid(
            [(config, "rtsads")], jobs=1, cache_dir=str(tmp_path)
        ).cells[0]
        assert swept.hit_percents == [r.hit_percent for r in reports]
        assert swept.makespans == [r.makespan for r in reports]
        assert swept.scheduling_times == [
            r.total_scheduling_time for r in reports
        ]
        assert swept.regrets == [r.regret for r in reports]
        assert swept.scheduled_but_missed == sum(
            r.guaranteed_violations for r in reports
        )

    def test_second_run_executes_nothing(self, tmp_path):
        config = tiny_config()
        first = run_grid([(config, "rtsads")], jobs=1, cache_dir=str(tmp_path))
        assert first.stats.executed == config.runs
        second = run_grid(
            [(config, "rtsads")], jobs=1, cache_dir=str(tmp_path)
        )
        assert second.stats.executed == 0
        assert second.stats.cached == config.runs
        assert second.cells[0].hit_percents == first.cells[0].hit_percents

    def test_resume_runs_only_missing_cells(self, tmp_path):
        config = tiny_config(runs=3)
        cache = SweepCache(tmp_path)
        run_grid([(config, "rtsads")], jobs=1, cache_dir=str(tmp_path))
        # Simulate an interrupted sweep: drop one cached cell.
        victim = SweepCell(config, "rtsads", config.seeds()[1])
        cache.cell_path(victim).unlink()
        resumed = run_grid(
            [(config, "rtsads")], jobs=1, cache_dir=str(tmp_path)
        )
        assert resumed.stats.executed == 1
        assert resumed.stats.cached == 2

    def test_a_longer_sweep_reuses_the_seeds_already_cached(self, tmp_path):
        """--runs 2, then --runs 3: one new seed per spec, because the
        cache keys on what a run reads."""

        def specs(config):
            return [(config, "rtsads"), (config, "dcols")]

        short = tiny_config(runs=2)
        run_grid(specs(short), jobs=1, cache_dir=str(tmp_path))
        longer = dataclasses.replace(short, runs=3)
        warm = run_grid(specs(longer), jobs=1, cache_dir=str(tmp_path))
        assert warm.stats.cached == 2 * len(specs(longer))
        assert warm.stats.executed == 1 * len(specs(longer))
        cold = run_grid(specs(longer), jobs=1, cache_dir=None)
        assert cold.stats.executed == 3 * len(specs(longer))
        assert [dataclasses.asdict(cell) for cell in warm.cells] == [
            dataclasses.asdict(cell) for cell in cold.cells
        ]

    def test_no_cache_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_grid([(tiny_config(), "rtsads")], jobs=1, cache_dir=None)
        assert list(tmp_path.iterdir()) == []

    def test_execution_knobs_default_from_the_first_config(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path))
        outcome = run_grid([(config, "rtsads")])
        assert outcome.stats.jobs == 1
        assert outcome.stats.executed == config.runs
        again = run_grid([(config, "rtsads")])
        assert again.stats.executed == 0

    def test_empty_specs(self):
        outcome = run_grid([])
        assert outcome.cells == []
        assert outcome.stats.total_cells == 0

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_grid([(tiny_config(), "rtsads")], jobs=0)

    def test_multi_spec_order_is_call_order(self, tmp_path):
        config = tiny_config()
        outcome = run_grid(
            [(config, "dcols"), (config, "rtsads")],
            jobs=1,
            cache_dir=str(tmp_path),
        )
        assert [cell.scheduler_name for cell in outcome.cells] == [
            "dcols",
            "rtsads",
        ]
        assert all(cell.config is config for cell in outcome.cells)


@pytest.mark.slow
class TestSpawnPool:
    """The real multiprocessing path: expensive, so one test covers it."""

    def test_pool_results_identical_to_serial(self, tmp_path):
        config = tiny_config()
        serial = run_grid([(config, "rtsads")], jobs=1, cache_dir=None)
        pooled = run_grid(
            [(config, "rtsads")],
            jobs=2,
            cache_dir=str(tmp_path),
        )
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
        serial = run_grid([(config, "rtsads")], jobs=1, cache_dir=None)
        pooled = run_grid([(config, "rtsads")], jobs=3, cache_dir=None)
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
                run_grid([(tiny_config(), "rtsads")], jobs=2, cache_dir=None)
            return obs.cells

        default = summary()
        monkeypatch.setattr(sweep, "_start_method", lambda: "spawn")
        assert summary() == default


def _traced_grid(jobs, cache_dir=None):
    """Run one tiny grid under fresh instrumentation; return (obs, outcome)."""
    from repro.observability import (
        OFF,
        Instrumentation,
        MemorySink,
        StructuredLogger,
        instrumented,
    )

    config = tiny_config()
    obs = Instrumentation(
        sink=MemorySink(), logger=StructuredLogger(level=OFF)
    )
    with instrumented(obs):
        outcome = run_grid(
            [(config, "rtsads")], jobs=jobs, cache_dir=cache_dir
        )
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
        deltas of a serial run."""
        serial_obs, _ = _traced_grid(jobs=1)
        pooled_obs, _ = _traced_grid(jobs=2)
        serial_counters = serial_obs.cells[0]["counters"]
        pooled_counters = pooled_obs.cells[0]["counters"]
        assert serial_counters  # the run must actually move counters
        assert pooled_counters == serial_counters

    def test_cache_records_persist_counters(self, tmp_path):
        """Schema-v2 cache records carry the cell's counter deltas."""
        _traced_grid(jobs=1, cache_dir=str(tmp_path))
        record_files = list(tmp_path.glob("*/*-seed*.json"))
        assert record_files
        for path in record_files:
            payload = json.loads(path.read_text())
            assert payload["schema"] == CACHE_SCHEMA_VERSION
            assert payload["record"]["counters"]

    def test_cached_cells_report_the_same_counters(self, tmp_path):
        """A fully resumed sweep (zero executions) reports the same
        summed counters as the run that populated the cache."""
        first_obs, first = _traced_grid(jobs=1, cache_dir=str(tmp_path))
        second_obs, second = _traced_grid(jobs=1, cache_dir=str(tmp_path))
        assert second.stats.executed == 0
        assert second.stats.cached == first.stats.executed
        assert (
            second_obs.cells[0]["counters"] == first_obs.cells[0]["counters"]
        )


@pytest.mark.slow
class TestClusterCells:
    """Live-cluster cells: never pooled, serialized on the port pool."""

    def test_cluster_cells_execute_and_cache(self, tmp_path):
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
        out = run_grid([(config, "rtsads")], jobs=4, cache_dir=str(tmp_path))
        assert out.stats.executed == 1
        assert out.cells[0].config.backend == "cluster"
        again = run_grid(
            [(config, "rtsads")], jobs=4, cache_dir=str(tmp_path)
        )
        assert again.stats.executed == 0
        assert again.cells[0].hit_percents == out.cells[0].hit_percents


class TestRunnerDelegation:
    def test_run_cell_uses_the_cache_when_configured(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path))
        first = run_cell(config, "rtsads")
        # The cache now holds every repetition; a second call must load
        # rather than recompute, which we observe via the manifest dir.
        digest_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(digest_dirs) == 1
        assert len(list(digest_dirs[0].glob("*-seed*.json"))) == config.runs
        second = run_cell(config, "rtsads")
        assert second.hit_percents == first.hit_percents


class TestConfigExecutionFields:
    def test_defaults_are_serial_and_uncached(self):
        config = ExperimentConfig.quick()
        assert config.jobs == 1
        assert config.cache_dir is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.quick(jobs=0)
        with pytest.raises(TypeError):
            ExperimentConfig.quick(resume=True)  # not a field: see --resume
