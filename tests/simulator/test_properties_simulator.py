"""Property-based tests on the full on-line runtime.

The heavyweight invariant: across random workloads, machines and both
schedulers, **no scheduled task ever finishes after its deadline** (the
paper's theorem), every task terminates, and the virtual clock is
consistent.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DCOLS, RTSADS, GreedyEDFScheduler, UniformCommunicationModel, make_task
from repro.runtime.ledger import COMPLETED, EXPIRED
from repro.simulator import simulate

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def online_workloads(draw):
    seed = draw(st.integers(min_value=0, max_value=99_999))
    num_processors = draw(st.integers(min_value=1, max_value=5))
    num_tasks = draw(st.integers(min_value=1, max_value=30))
    bursty = draw(st.booleans())
    rng = random.Random(seed)
    tasks = []
    for task_id in range(num_tasks):
        processing = rng.uniform(1.0, 30.0)
        arrival = 0.0 if bursty else rng.uniform(0.0, 100.0)
        laxity = rng.uniform(1.5, 15.0)
        affinity = frozenset(
            p for p in range(num_processors) if rng.random() < 0.5
        ) or frozenset({rng.randrange(num_processors)})
        tasks.append(
            make_task(
                task_id,
                processing_time=processing,
                arrival_time=arrival,
                deadline=arrival + processing * laxity,
                affinity=affinity,
            )
        )
    remote_cost = rng.uniform(0.0, 60.0)
    return tasks, num_processors, remote_cost


def _scheduler(kind, comm):
    if kind == "rtsads":
        return RTSADS(comm)
    if kind == "dcols":
        return DCOLS(comm)
    return GreedyEDFScheduler(comm)


class TestRuntimeProperties:
    @settings(**SETTINGS)
    @given(
        workload=online_workloads(),
        kind=st.sampled_from(["rtsads", "dcols", "greedy"]),
    )
    def test_theorem_scheduled_tasks_meet_deadlines(self, workload, kind):
        tasks, m, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = simulate(
            _scheduler(kind, comm), tasks, num_workers=m, validate_phases=True
        )
        assert result.trace.scheduled_but_missed() == []

    @settings(**SETTINGS)
    @given(workload=online_workloads())
    def test_every_task_terminates(self, workload):
        tasks, m, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = simulate(RTSADS(comm), tasks, num_workers=m)
        assert result.total_tasks == len(tasks)
        for record in result.trace.records.values():
            assert record.status in (COMPLETED, EXPIRED)

    @settings(**SETTINGS)
    @given(workload=online_workloads())
    def test_execution_windows_consistent(self, workload):
        """start >= arrival, finish = start + p + c, per-worker no overlap."""
        tasks, m, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = simulate(RTSADS(comm), tasks, num_workers=m)
        for record in result.trace.records.values():
            if record.status != COMPLETED:
                continue
            assert record.started_at >= record.task.arrival_time - 1e-9
            expected_cost = comm.execution_cost(record.task, record.processor)
            assert record.finished_at - record.started_at == (
                __import__("pytest").approx(expected_cost)
            )
        for lane in result.trace.gantt().values():
            for (_, _, finish), (_, start, _) in zip(lane, lane[1:]):
                assert start >= finish - 1e-9

    @settings(**SETTINGS)
    @given(workload=online_workloads())
    def test_hit_ratio_counts_match(self, workload):
        tasks, m, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = simulate(DCOLS(comm), tasks, num_workers=m)
        hits = sum(
            1 for r in result.trace.records.values() if r.met_deadline
        )
        assert result.deadline_hits == hits
        assert result.hit_ratio == hits / len(tasks)
