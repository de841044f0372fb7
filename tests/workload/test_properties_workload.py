"""Property-based tests on workload generators."""

import random

from hypothesis import given, settings, strategies as st

from repro.workload import (
    BatchedArrival,
    BurstyArrival,
    PoissonArrival,
    ProportionalDeadline,
    SyntheticWorkloadConfig,
    SyntheticWorkloadGenerator,
    UniformArrival,
)

SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def arrival_processes(draw):
    kind = draw(st.sampled_from(["bursty", "poisson", "uniform", "batched"]))
    if kind == "bursty":
        return BurstyArrival()
    if kind == "poisson":
        return PoissonArrival(
            rate=draw(st.floats(min_value=0.01, max_value=10.0))
        )
    if kind == "uniform":
        start = draw(st.floats(min_value=0.0, max_value=10.0))
        return UniformArrival(start, start + draw(
            st.floats(min_value=1.0, max_value=100.0)))
    return BatchedArrival(
        num_batches=draw(st.integers(min_value=1, max_value=5)),
        interval=draw(st.floats(min_value=1.0, max_value=100.0)),
    )


class TestArrivalProperties:
    @settings(**SETTINGS)
    @given(
        process=arrival_processes(),
        n=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=9999),
    )
    def test_times_sorted_nonnegative_and_sized(self, process, n, seed):
        times = process.arrival_times(n, random.Random(seed))
        assert len(times) == n
        assert all(t >= 0.0 for t in times)
        assert times == sorted(times)


class TestSyntheticWorkloadProperties:
    @settings(**SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        num_tasks=st.integers(min_value=1, max_value=60),
        num_processors=st.integers(min_value=1, max_value=8),
        affinity=st.floats(min_value=0.0, max_value=1.0),
        slack=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_generated_tasks_well_formed(
        self, seed, num_tasks, num_processors, affinity, slack
    ):
        tasks = SyntheticWorkloadGenerator(
            SyntheticWorkloadConfig(
                num_tasks=num_tasks,
                num_processors=num_processors,
                affinity_probability=affinity,
                slack_factor=slack,
                seed=seed,
            )
        ).generate()
        assert len(tasks) == num_tasks
        for task in tasks:
            assert task.processing_time > 0
            assert task.deadline > task.arrival_time
            assert task.affinity
            assert all(0 <= p < num_processors for p in task.affinity)
            # The proportional rule: d - a = SF * 10 * p.
            assert task.deadline - task.arrival_time == (
                __import__("pytest").approx(10.0 * slack * task.processing_time)
            )


class TestDeadlinePolicyProperties:
    @settings(**SETTINGS)
    @given(
        arrival=st.floats(min_value=0.0, max_value=1e6),
        cost=st.floats(min_value=1e-3, max_value=1e6),
        slack=st.floats(min_value=1e-3, max_value=100.0),
    )
    def test_proportional_deadline_always_after_arrival(
        self, arrival, cost, slack
    ):
        deadline = ProportionalDeadline(slack).deadline(arrival, cost)
        assert deadline > arrival
        # Monotone in cost: a dearer task never gets an earlier deadline.
        assert ProportionalDeadline(slack).deadline(arrival, cost * 2) > deadline
