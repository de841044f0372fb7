"""Which calls a traced run wraps, and how spans become layer metrics.

Layers are the ``src/repro`` packages.  Each target below is the public
callable through which a run enters one of them; the span names group
targets whose self time belongs to the same layer metric.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from stats import median
from tracing import Tracer, install, self_times

#: Batches at least this large take the vectorized kernel's batch path
#: (``VectorizedKernel.SMALL_PHASE_CUTOFF``); smaller ones fall back to scalar.
BIG_PHASE = 64

#: Layer metric -> the span names whose self time it sums.
SELF_TIME_METRICS = {
    "workload.build_s": ("workload.build", "workload.generate"),
    "database.build_s": ("database.build",),
    "analysis.oracle_s": ("analysis.oracle",),
    "core.search_s": ("core.search",),
    "core.quantum_s": ("core.quantum",),
    "runtime.driver_s": ("runtime.open_phase", "runtime.deliver_phase"),
    "simulator.engine_s": ("simulator.simulate",),
    "sharding.runtime_s": ("sharding.run", "sharding.partition"),
    "experiments.overhead_s": ("experiments.figure",),
}


class RunCounts:
    """Counts taken from every ``RunReport`` a traced run produces.

    Only numbers are kept: a report holds the run's full simulation trace,
    and a pass makes hundreds of them.
    """

    def __init__(self) -> None:
        self.hit_percents: List[float] = []
        self.batch_sizes: List[int] = []
        self.vertices = 0
        self.placed = 0
        self.dead_ends = 0
        self.events = 0
        self.offers = 0
        self.offers_accepted = 0

    def add(self, report) -> None:
        self.hit_percents.append(report.hit_percent)
        for phase in report.phases:
            self.batch_sizes.append(phase.batch_size)
            self.vertices += phase.vertices_generated
            self.placed += phase.scheduled
            self.dead_ends += bool(phase.dead_end)
        self.events += report.events_dispatched
        self.offers += int(report.migration.get("offers", 0))
        self.offers_accepted += int(report.migration.get("accepted", 0))

    def metrics(self, search_seconds: float, engine_seconds: float) -> Dict[str, float]:
        phases = len(self.batch_sizes)
        return {
            "core.phases": phases,
            "core.vertices": self.vertices,
            "core.vertices_per_s": _ratio(self.vertices, search_seconds),
            "core.batch_p50": median(self.batch_sizes) if phases else 0,
            "core.big_phase_share": _ratio(
                sum(size >= BIG_PHASE for size in self.batch_sizes), phases
            ),
            "core.dead_end_share": _ratio(self.dead_ends, phases),
            "core.placed_per_vertex": _ratio(self.placed, self.vertices),
            "simulator.events": self.events,
            "simulator.events_per_s": _ratio(self.events, engine_seconds),
            "sharding.migration_offers": self.offers,
            "sharding.migration_accept_share": _ratio(
                self.offers_accepted, self.offers
            ),
            "sim.hit_percent_mean": _ratio(
                sum(self.hit_percents), len(self.hit_percents)
            ),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def targets(tracer: Tracer, counts: RunCounts) -> List[Tuple[str, str, dict]]:
    """The traced callables: dotted name, span name, wrap options."""

    def proxy_scheduler(scheduler) -> None:
        # The driver calls these two on whatever make_scheduler returned.
        scheduler.plan_quantum = tracer.wrap(
            "core.quantum", scheduler.plan_quantum
        )
        scheduler.schedule_phase = tracer.wrap(
            "core.search", scheduler.schedule_phase
        )

    return [
        (
            "repro.experiments.runner.run_once",
            "experiments.run_once",
            {"new_rep": True, "after": counts.add},
        ),
        ("repro.experiments.runner.build_workload", "workload.build", {}),
        ("repro.cluster.config.build_cluster_workload", "workload.build", {}),
        (
            "repro.workload.transactions.TransactionWorkloadGenerator"
            ".generate_tasks",
            "workload.generate",
            {},
        ),
        (
            "repro.workload.transactions.TransactionWorkloadGenerator.generate",
            "workload.generate",
            {},
        ),
        (
            "repro.database.database.DistributedDatabase.build",
            "database.build",
            {},
        ),
        ("repro.analysis.schedulability.analyze_tasks", "analysis.oracle", {}),
        (
            "repro.core.registry.make_scheduler",
            "core.make_scheduler",
            {"after": proxy_scheduler},
        ),
        ("repro.runtime.driver.PhaseDriver.open_phase", "runtime.open_phase", {}),
        (
            "repro.runtime.driver.PhaseDriver.deliver_phase",
            "runtime.deliver_phase",
            {},
        ),
        ("repro.simulator.runtime.simulate", "simulator.simulate", {}),
        ("repro.sharding.sim.ShardedRuntime.run", "sharding.run", {}),
        ("repro.core.domains.partition_workers", "sharding.partition", {}),
    ]


def install_layers(tracer: Tracer, counts: RunCounts) -> List[str]:
    """Wrap every layer target that still exists; returns the missing ones."""
    return install(tracer, targets(tracer, counts))


def layer_seconds(spans: Sequence[Sequence], wall: float) -> Dict[str, float]:
    """The time-valued layer metrics of one traced section lasting ``wall``.

    ``bench.unattributed_s`` is what no layer metric claims: glue inside
    ``run_once`` and, after a refactor, the time of any callable the
    wrappers no longer find.
    """
    times = self_times(spans)

    def of(names: Tuple[str, ...], kind: str) -> float:
        return sum(times[name][kind] for name in names if name in times)

    metrics = {
        metric: of(names, "self")
        for metric, names in SELF_TIME_METRICS.items()
    }
    metrics["bench.unattributed_s"] = wall - sum(metrics.values())
    metrics["experiments.run_once_s"] = of(("experiments.run_once",), "total")
    metrics["workload.build_calls"] = of(("workload.build",), "calls")
    metrics["analysis.oracle_calls"] = of(("analysis.oracle",), "calls")
    return metrics
