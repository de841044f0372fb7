"""Microbenchmarks of the search substrate itself.

Not a paper figure — these keep the engine honest: vertex expansion rates
for both representations, candidate-list operations, quantum policy cost,
the discrete-event engine's dispatch rate, and the optimized expander's
speedup over the frozen reference implementation in
:mod:`repro.core.reference` (see ``docs/PERFORMANCE.md``).
Regressions here silently inflate every experiment above.

Headline numbers land in ``results/BENCH_search.json`` (see conftest).
"""

import random
import statistics
import time

from conftest import record_metric

from repro.core import (
    AssignmentOrientedExpander,
    CandidateList,
    LoadBalancingEvaluator,
    PhaseContext,
    SelfAdjustingQuantum,
    SequenceOrientedExpander,
    UniformCommunicationModel,
    VirtualTimeBudget,
    make_child,
    make_root,
    make_task,
    run_search,
)
from repro.core import reference
from repro.simulator import SimulationEngine

#: Acceptance bar for the hot-path optimization: vertices expanded per
#: second of search, optimized vs frozen reference, same quantum.
SPEEDUP_TARGET = 1.5


def timing_samples(benchmark):
    """Raw timing samples, or None under ``--benchmark-disable``."""
    stats = getattr(benchmark, "stats", None)
    return stats.stats.data if stats is not None else None


def _tasks(n, m, seed=0):
    rng = random.Random(seed)
    tasks = []
    for task_id in range(n):
        p = rng.uniform(5.0, 50.0)
        affinity = frozenset(
            proc for proc in range(m) if rng.random() < 0.4
        ) or frozenset({rng.randrange(m)})
        tasks.append(
            make_task(task_id, processing_time=p, deadline=p * 20.0,
                      affinity=affinity)
        )
    return tasks


def _ctx(n=200, m=8, quantum=200.0):
    return PhaseContext(
        tasks=sorted(_tasks(n, m), key=lambda t: (t.deadline, t.task_id)),
        num_processors=m,
        comm=UniformCommunicationModel(40.0),
        phase_start=0.0,
        quantum=quantum,
        initial_offsets=(0.0,) * m,
        evaluator=LoadBalancingEvaluator(),
    )


def test_assignment_oriented_search_rate(benchmark):
    ctx = _ctx()

    def search():
        return run_search(
            ctx,
            AssignmentOrientedExpander(),
            VirtualTimeBudget(quantum=200.0, per_vertex_cost=0.01),
        )

    outcome = benchmark(search)
    assert outcome.best.depth > 0
    record_metric(
        "search",
        "assignment_search_seconds",
        samples=timing_samples(benchmark),
        unit="s",
        vertices_per_quantum=outcome.stats.vertices_generated,
    )


def test_sequence_oriented_search_rate(benchmark):
    ctx = _ctx()

    def search():
        return run_search(
            ctx,
            SequenceOrientedExpander(),
            VirtualTimeBudget(quantum=200.0, per_vertex_cost=0.01),
        )

    outcome = benchmark(search)
    assert outcome.stats.vertices_generated > 0
    record_metric(
        "search",
        "sequence_search_seconds",
        samples=timing_samples(benchmark),
        unit="s",
        vertices_per_quantum=outcome.stats.vertices_generated,
    )


def _expansion_rates(run, ctx, expander_factory, budget_factory, repeats):
    """Vertices generated per second of search, one sample per repeat."""
    rates = []
    for _ in range(repeats):
        budget = budget_factory()
        start = time.perf_counter()
        outcome = run(ctx, expander_factory(), budget)
        elapsed = time.perf_counter() - start
        rates.append(outcome.stats.vertices_generated / elapsed)
    return rates, outcome


def _speedup_cell(m, repeats=15, n=200):
    """Optimized vs reference expansion rate on one workload size."""
    budget = lambda: VirtualTimeBudget(quantum=200.0, per_vertex_cost=0.01)
    opt_rates, opt_out = _expansion_rates(
        run_search,
        _ctx(n=n, m=m),
        AssignmentOrientedExpander,
        budget,
        repeats,
    )
    ref_ctx = PhaseContext(
        tasks=sorted(_tasks(n, m), key=lambda t: (t.deadline, t.task_id)),
        num_processors=m,
        comm=UniformCommunicationModel(40.0),
        phase_start=0.0,
        quantum=200.0,
        initial_offsets=(0.0,) * m,
        evaluator=reference.ReferenceLoadBalancingEvaluator(),
    )
    ref_rates, ref_out = _expansion_rates(
        reference.run_search,
        ref_ctx,
        reference.ReferenceAssignmentOrientedExpander,
        budget,
        repeats,
    )
    # Same quantum must buy the same tree — the speedup is pure overhead
    # reduction, not a different search.
    assert opt_out.stats.vertices_generated == ref_out.stats.vertices_generated
    assert opt_out.best.depth == ref_out.best.depth
    assert opt_out.best.scheduled_end == ref_out.best.scheduled_end
    return opt_rates, ref_rates


def test_optimized_vs_reference_speedup():
    """The tentpole acceptance bar: >= 1.5x vertices expanded per unit of
    wall clock against the frozen reference, on the assignment-oriented
    (RT-SADS) representation the paper's scalability claim rests on."""
    results = {}
    for m in (8, 16):
        opt_rates, ref_rates = _speedup_cell(m)
        speedup = statistics.median(opt_rates) / statistics.median(ref_rates)
        results[m] = speedup
        record_metric(
            "search",
            f"optimized_rate_m{m}",
            samples=opt_rates,
            unit="vertices/s",
        )
        record_metric(
            "search",
            f"reference_rate_m{m}",
            samples=ref_rates,
            unit="vertices/s",
        )
        record_metric("search", f"speedup_vs_reference_m{m}", speedup=speedup)
    best = max(results.values())
    record_metric("search", "speedup_vs_reference_best", speedup=best)
    assert best >= SPEEDUP_TARGET, (
        f"hot-path speedup {best:.2f}x fell below the {SPEEDUP_TARGET}x bar "
        f"(per-m: {', '.join(f'm={m}: {s:.2f}x' for m, s in results.items())})"
    )


def test_candidate_list_throughput(benchmark):
    root = make_root((0.0,) * 4)
    block = [make_child(root, i, i % 4, 10.0, 0.0) for i in range(16)]

    def churn():
        cl = CandidateList(max_size=4096)
        for _ in range(200):
            cl.push_block(block)
            for _ in range(8):
                cl.pop()
        return len(cl)

    assert benchmark(churn) > 0


def test_quantum_policy_cost(benchmark):
    tasks = _tasks(500, 8)
    loads = [float(i) for i in range(8)]
    policy = SelfAdjustingQuantum()
    value = benchmark(lambda: policy.quantum(tasks, loads, now=10.0))
    assert value > 0


def test_event_engine_dispatch_rate(benchmark):
    class Tick:
        pass

    def run_engine():
        engine = SimulationEngine()
        count = [0]

        def handler(now, event):
            count[0] += 1
            if count[0] < 5000:
                engine.schedule_after(1.0, Tick())

        engine.subscribe(Tick, handler)
        engine.schedule_at(0.0, Tick())
        engine.run()
        return count[0]

    assert benchmark(run_engine) == 5000


def _schedule_phase(scheduler, tasks, m):
    loads = (0.0,) * m
    quantum = scheduler.plan_quantum(tasks, loads, now=0.0)
    return scheduler.schedule_phase(tasks, loads, now=0.0, quantum=quantum)


def test_phase_instrumentation_disabled_overhead(benchmark):
    """The off-by-default path: must track the uninstrumented seed (<5%)."""
    from repro.core import RTSADS

    m = 8
    tasks = _tasks(120, m, seed=3)
    scheduler = RTSADS(UniformCommunicationModel(40.0))
    result = benchmark(lambda: _schedule_phase(scheduler, tasks, m))
    assert len(result.schedule) > 0


def test_phase_instrumentation_enabled_overhead(benchmark):
    """Full instrumentation: spans + counters + a memory trace sink."""
    from repro.core import RTSADS
    from repro.observability import Instrumentation, MemorySink

    m = 8
    tasks = _tasks(120, m, seed=3)
    obs = Instrumentation(sink=MemorySink())
    scheduler = RTSADS(UniformCommunicationModel(40.0), instrumentation=obs)
    result = benchmark(lambda: _schedule_phase(scheduler, tasks, m))
    assert len(result.schedule) > 0
    assert obs.metrics.snapshot()["counters"]["scheduler_phases{scheduler=RT-SADS}"] > 0
