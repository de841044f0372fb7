"""A finished run frees itself: by reference count, not the cycle collector.

A sweep makes hundreds of runs, each holding a trace of every task.  If a
finished runtime sat in a reference cycle, its trace would stay until the
collector's next pass, and how soon that comes depends on how much garbage
the rest of the program makes — so peak memory would rise as the program
got faster.  With the collector off, dropping the result of a shard-curve
cell must be enough to free the runtime, its hosts and its trace.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import ExperimentConfig, shard_curve
from repro.simulator import DistributedRuntime


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("domains", [1, 4])
def test_a_finished_run_is_freed_without_the_collector(
    monkeypatch, collector_off, domains
):
    watched = {}
    run = DistributedRuntime.run

    def watching_run(self):
        watched["runtime"] = weakref.ref(self)
        watched["engine"] = weakref.ref(self.engine)
        watched["ledger"] = weakref.ref(self.ledger)
        for host in self.domains:
            watched[f"host {host.domain_id}"] = weakref.ref(host)
            watched[f"driver {host.domain_id}"] = weakref.ref(host.driver)
        return run(self)

    monkeypatch.setattr(DistributedRuntime, "run", watching_run)
    config = ExperimentConfig.quick(
        num_transactions=120, num_processors=8, runs=1
    )
    shard_curve(config, processors=(8,), domains=(domains,))
    assert len(watched) == 3 + 2 * domains
    assert [name for name, ref in watched.items() if ref() is not None] == []
