"""One workload build per ``(workload fields, seed)``, one draw per
``(draw fields, seed)``: the runner's memo.

Pins what the memo is keyed on (exactly the fields each half of the
generator reads), how many real draws a figure cell, an ``m``- and
``R``-sweep and a shard-curve row cost, that a caller cannot poison a
later hit, that what the memo and the oracle retain is bounded by
constants and holds no row, and that threads sharing it lose no update.
"""

from __future__ import annotations

import gc
import sys
import threading
from dataclasses import fields, replace

import pytest

from repro.analysis import schedulability
from repro.database import (
    DatabaseConfig,
    GlobalIndex,
    SubDatabase,
    Transaction,
)
from repro.database import database as database_module
from repro.experiments import (
    ExperimentConfig,
    figure5,
    figure6,
    shard_curve,
)
from repro.experiments import runner
from repro.experiments.config import (
    DRAW_FIELDS,
    RATE_FIELDS,
    WORKLOAD_FIELDS,
)
from repro.experiments.runner import (
    WORKLOAD_MEMO_TASKS,
    WorkloadMemo,
    workload_tasks,
)
from repro.workload.transactions import build_seeded_workload, draw_workload

TINY = ExperimentConfig.quick(num_transactions=30, num_processors=4, runs=3)
POISSON = replace(TINY, arrival="poisson", offered_load=0.7)

#: arrival -> (config, what its draw reads, what its whole build reads)
ARRIVALS = {
    "burst": (TINY, DRAW_FIELDS, WORKLOAD_FIELDS),
    "poisson": (
        POISSON,
        DRAW_FIELDS + RATE_FIELDS,
        WORKLOAD_FIELDS + ("offered_load",),
    ),
}


@pytest.fixture
def seeded_builds(monkeypatch):
    """Count real seed draws (the rows, index and transactions of a seed),
    starting from no memo."""
    calls = []

    def counting(config, seed):
        calls.append((config.draw_key(), seed))
        return draw_workload(config, seed)

    monkeypatch.setattr(runner, "draw_workload", counting)
    monkeypatch.setattr(runner, "_WORKLOADS", WorkloadMemo())
    return calls


@pytest.fixture
def drawn_subdatabases(monkeypatch):
    """Count generated sub-databases, starting from no memo."""
    drawn = []
    generate = database_module.generate_subdatabase

    def counting(subdb, *args):
        drawn.append(subdb)
        return generate(subdb, *args)

    monkeypatch.setattr(database_module, "generate_subdatabase", counting)
    monkeypatch.setattr(runner, "_WORKLOADS", WorkloadMemo())
    return drawn


def _reachable(roots):
    """Every object reachable from ``roots``, classes and modules aside."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


class _RecordingConfig:
    """Stands in for an ExperimentConfig and records every field read."""

    def __init__(self, config: ExperimentConfig) -> None:
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


class TestKey:
    def test_the_key_is_exactly_what_the_generator_reads(self):
        proxy = _RecordingConfig(TINY)
        build_seeded_workload(proxy, 1)
        assert proxy.read == set(WORKLOAD_FIELDS)

    def test_the_seed_half_reads_no_placement_field(self):
        proxy = _RecordingConfig(TINY)
        draw_workload(proxy, 1)
        assert proxy.read == set(DRAW_FIELDS)
        assert not proxy.read & {"num_processors", "replication_rate"}

    def test_the_two_halves_read_exactly_the_workload_fields(self):
        proxy = _RecordingConfig(TINY)
        draw, _ = runner.build_workload(proxy, 1)
        assert proxy.read == set(WORKLOAD_FIELDS)
        placed = _RecordingConfig(TINY)
        runner.build_workload(placed, 1, draw)
        assert placed.read == {"num_processors", "replication_rate"}

    def test_every_key_field_is_a_config_field(self):
        assert set(WORKLOAD_FIELDS) <= {spec.name for spec in fields(TINY)}
        assert len(TINY.workload_key()) == len(WORKLOAD_FIELDS)
        assert len(TINY.draw_key()) == len(DRAW_FIELDS)

    def test_draw_keys_and_workload_keys_never_meet(self):
        configs = [
            replace(config, num_processors=m, offered_load=load)
            for config in (TINY, POISSON)
            for m in (2, 4)
            for load in (0.7, 1.0)
        ]
        draws = {config.draw_key() for config in configs}
        workloads = {config.workload_key() for config in configs}
        assert len(draws) == 1 + 4  # a burst reads neither m nor the load
        assert len(workloads) == 2 + 4
        assert not draws & workloads

    def test_placement_is_not_in_the_draw_key(self):
        elsewhere = TINY.with_processors(9).with_replication(0.8)
        assert elsewhere.draw_key() == TINY.draw_key()
        assert elsewhere.workload_key() != TINY.workload_key()

    def test_where_a_workload_runs_is_not_in_the_key(self):
        elsewhere = replace(
            TINY,
            domains=2,
            partition_policy="worst-fit",
            scheduler="edf",
            backend="sharded",
        )
        assert elsewhere.workload_key() == TINY.workload_key()
        assert workload_tasks(elsewhere, 3) is workload_tasks(TINY, 3)

    def test_a_workload_field_or_the_seed_changes_the_workload(self):
        base = workload_tasks(TINY, 3)
        assert workload_tasks(TINY, 4) is not base
        assert workload_tasks(TINY.with_replication(0.9), 3) is not base


@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
class TestKeyPerArrival:
    def test_the_draw_reads_its_fields(self, arrival):
        config, draw_fields, _ = ARRIVALS[arrival]
        proxy = _RecordingConfig(config)
        draw_workload(proxy, 1)
        assert proxy.read == set(draw_fields)
        assert "replication_rate" not in proxy.read
        rate_fields = {"offered_load", "num_processors"}
        if arrival == "burst":
            assert not proxy.read & rate_fields
        else:
            assert proxy.read - set(DRAW_FIELDS) == rate_fields

    def test_each_half_reads_exactly_what_its_key_holds(self, arrival):
        config, draw_fields, workload_fields = ARRIVALS[arrival]
        assert config.draw_key() == tuple(
            getattr(config, name) for name in draw_fields
        )
        assert config.workload_key() == tuple(
            getattr(config, name) for name in workload_fields
        )
        drawn = _RecordingConfig(config)
        draw, _ = runner.build_workload(drawn, 1)
        assert drawn.read == set(workload_fields)
        placed = _RecordingConfig(config)
        runner.build_workload(placed, 1, draw)
        assert placed.read == {"num_processors", "replication_rate"}
        whole = _RecordingConfig(config)
        build_seeded_workload(whole, 1)
        assert whole.read == set(workload_fields)

    def test_what_the_draw_reads_changes_what_it_draws(self, arrival):
        config, draw_fields, _ = ARRIVALS[arrival]
        times = [d.arrival_time for d in draw_workload(config, 1)[2]]
        for name, value in (("offered_load", 1.4), ("num_processors", 8)):
            moved = replace(config, **{name: value})
            again = [d.arrival_time for d in draw_workload(moved, 1)[2]]
            assert (again != times) == (name in draw_fields)
            assert (moved.draw_key() != config.draw_key()) == (
                name in draw_fields
            )


class TestBuildCounts:
    def test_a_figure5_cell_builds_each_seed_once(self, seeded_builds):
        """rtsads + dcols, three runs each, each followed by the oracle:
        twelve requests, three workloads."""
        figure5(TINY, processors=(4,))
        assert len(seeded_builds) == len(set(seeded_builds)) == 3

    def test_a_shard_curve_row_builds_one_workload(self, seeded_builds):
        config = ExperimentConfig.quick(
            num_transactions=30, num_processors=4, runs=1
        )
        shard_curve(config, processors=(4,), domains=(1, 2, 4))
        assert len(seeded_builds) == 1

    def test_an_m_sweep_over_a_small_budget_draws_once(self, seeded_builds):
        """One draw and its task list outgrow the budget; the next ``m``
        still finds the draw."""
        memo = WorkloadMemo(max_tasks=TINY.num_transactions)
        for m in (2, 3, 4, 5):
            memo.tasks(TINY.with_processors(m), 1)
        assert len(seeded_builds) == 1

    def test_an_m_sweep_and_an_r_sweep_draw_each_seeds_rows_once(
        self, drawn_subdatabases
    ):
        """Every fig. 5 processor count and every fig. 6 replication rate
        over one database per seed."""
        config = ExperimentConfig.quick(num_transactions=20, runs=2)
        figure5(config)
        figure6(config)
        seeds = len(config.seeds())
        d = DatabaseConfig().num_subdatabases
        assert len(drawn_subdatabases) == seeds * d
        assert sorted(drawn_subdatabases) == sorted(list(range(d)) * seeds)


class TestIsolation:
    def test_a_hit_is_an_immutable_tuple_of_frozen_tasks(self):
        tasks = workload_tasks(TINY, 5)
        assert isinstance(tasks, tuple)
        with pytest.raises(AttributeError):
            tasks[0].deadline = 0.0  # Task is a frozen dataclass

    def test_extending_a_copy_cannot_reach_a_later_hit(self):
        first = workload_tasks(TINY, 5)
        mine = list(first)
        mine.append(mine[0])
        mine.reverse()
        again = workload_tasks(TINY, 5)
        assert again is first
        assert len(again) == TINY.num_transactions
        assert [task.task_id for task in again] == list(
            range(TINY.num_transactions)
        )

    def test_hits_equal_a_fresh_build(self):
        _, fresh = runner.build_workload(TINY, 5)
        assert workload_tasks(TINY, 5) == tuple(fresh)


class TestBounds:
    def test_the_memo_retains_at_most_its_task_bound(self):
        memo = WorkloadMemo(max_tasks=100)
        for seed in range(12):
            memo.tasks(TINY, seed)  # 30 tasks each
            assert memo.retained_tasks() <= 100
        assert memo.retained_tasks() == 90

    def test_the_latest_workload_is_kept_whatever_its_size(self):
        memo = WorkloadMemo(max_tasks=10)
        first = memo.tasks(TINY, 1)
        assert memo.tasks(TINY, 1) is first
        assert memo.retained_tasks() == 60  # the task list and its draw
        memo.tasks(TINY, 2)
        assert memo.retained_tasks() == 60  # seed 1 made room
        assert (TINY.workload_key(), 1) not in memo._entries

    def test_a_hit_refreshes_its_entry(self):
        memo = WorkloadMemo(max_tasks=120)  # two draws, two task lists
        first = memo.tasks(TINY, 1)
        memo.tasks(TINY, 2)
        assert memo.tasks(TINY, 1) is first  # now the most recent
        memo.tasks(TINY, 3)  # evicts the draws of seeds 1 and 2
        assert memo.tasks(TINY, 1) is first

    def test_draws_and_task_lists_share_the_budget(self):
        """A paper-scale-like sweep: one draw and one task list fit, so a
        new ``m`` evicts the old task list and keeps the seed's draw."""
        config = TINY.with_processors(2)
        memo = WorkloadMemo(max_tasks=2 * TINY.num_transactions)
        memo.tasks(config, 1)
        for m in (3, 4, 5):
            memo.tasks(config.with_processors(m), 1)
            assert memo.retained_tasks() == 2 * TINY.num_transactions
        entries = memo._entries.values()
        assert sorted(type(entry).__name__ for entry in entries) == [
            "SeededDraw",
            "tuple",
        ]

    def test_the_memo_retains_no_row_index_or_transaction(self):
        memo = WorkloadMemo()
        for m in (2, 3):
            for seed in (1, 2):
                memo.tasks(TINY.with_processors(m), seed)
        found = _reachable(memo._entries.values())
        assert not [
            obj for obj in found
            if isinstance(obj, (SubDatabase, GlobalIndex, Transaction))
        ]
        rows = [
            obj for obj in found
            if isinstance(obj, tuple)
            and len(obj) == DatabaseConfig().num_attributes
            and all(type(value) is int for value in obj)
        ]
        assert rows == []

    def test_a_sweep_leaves_both_process_memos_within_their_constants(self):
        """What stays behind after N distinct workloads does not grow
        with N: not in the workload memo, not in the oracle's cache."""
        config = ExperimentConfig.quick(
            num_transactions=300, num_processors=4, runs=1
        )
        schedulability._analyze.cache_clear()
        for seed in range(100, 100 + 3 * schedulability.ORACLE_CACHE_ENTRIES):
            runner.run_once(config, "rtsads", seed)
        assert runner._WORKLOADS.retained_tasks() <= WORKLOAD_MEMO_TASKS
        info = schedulability._analyze.cache_info()
        assert info.maxsize == schedulability.ORACLE_CACHE_ENTRIES
        assert info.currsize <= schedulability.ORACLE_CACHE_ENTRIES


class TestThreads:
    def test_threads_sharing_the_memo_build_each_workload_once(
        self, seeded_builds
    ):
        """More threads than cores, a 10 microsecond switch interval: a
        lost update would show as a second build of a seed, a torn
        eviction as more retained tasks than the entries account for."""
        # Four draws and four task lists fit, so nothing is ever evicted.
        memo = WorkloadMemo(max_tasks=8 * TINY.num_transactions)
        seeds = range(4)
        results = {seed: [] for seed in seeds}
        errors = []

        def worker() -> None:
            try:
                for _ in range(5):
                    for seed in seeds:
                        results[seed].append(memo.tasks(TINY, seed))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(seed for _, seed in seeded_builds) == list(seeds)
        for seed in seeds:
            assert len(results[seed]) == 8 * 5
            assert all(hit is results[seed][0] for hit in results[seed])
        assert memo.retained_tasks() == 8 * TINY.num_transactions
