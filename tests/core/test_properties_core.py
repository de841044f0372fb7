"""Property-based tests on the core invariants (hypothesis).

The paper's correctness theorem and its supporting invariants are checked
over randomly generated workloads and phase parameters:

1. Every schedule a phase produces satisfies the Figure-4 bound.
2. Per-processor scheduled ends are cumulative and non-decreasing.
3. Search never schedules a task twice.
4. The quantum criterion is monotone in its inputs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    AssignmentOrientedExpander,
    LoadBalancingEvaluator,
    SelfAdjustingQuantum,
    SequenceOrientedExpander,
    UniformCommunicationModel,
    make_task,
    min_load,
    min_slack,
    run_phase,
)

MAX_EXAMPLES = 60


@st.composite
def workloads(draw):
    """A random batch plus machine state."""
    num_processors = draw(st.integers(min_value=1, max_value=6))
    num_tasks = draw(st.integers(min_value=1, max_value=20))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    tasks = []
    for task_id in range(num_tasks):
        processing = rng.uniform(1.0, 50.0)
        laxity = rng.uniform(1.0, 20.0)
        affinity = frozenset(
            p for p in range(num_processors) if rng.random() < 0.4
        ) or frozenset({rng.randrange(num_processors)})
        tasks.append(
            make_task(
                task_id,
                processing_time=processing,
                deadline=processing * laxity + 1.0,
                affinity=affinity,
            )
        )
    loads = [rng.uniform(0.0, 100.0) for _ in range(num_processors)]
    quantum = rng.uniform(0.5, 80.0)
    remote_cost = rng.uniform(0.0, 100.0)
    return tasks, loads, quantum, remote_cost


@st.composite
def expanders(draw):
    if draw(st.booleans()):
        return AssignmentOrientedExpander()
    return SequenceOrientedExpander()


class TestPhaseInvariants:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(workload=workloads(), expander=expanders())
    def test_schedule_respects_feasibility_bound(self, workload, expander):
        """Theorem precondition: every entry meets t_s + Q_s + se <= d."""
        tasks, loads, quantum, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = run_phase(
            tasks=tasks,
            loads=loads,
            now=0.0,
            quantum=quantum,
            comm=comm,
            expander=expander,
            evaluator=LoadBalancingEvaluator(),
            per_vertex_cost=0.01,
        )
        bound = result.phase_end_bound
        for entry in result.schedule:
            assert bound + entry.scheduled_end <= entry.task.deadline + 1e-6

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(workload=workloads(), expander=expanders())
    def test_schedule_internally_consistent(self, workload, expander):
        """Validate() accepts every schedule the phase produces."""
        tasks, loads, quantum, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = run_phase(
            tasks=tasks,
            loads=loads,
            now=0.0,
            quantum=quantum,
            comm=comm,
            expander=expander,
            evaluator=LoadBalancingEvaluator(),
            per_vertex_cost=0.01,
        )
        result.validate(comm)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(workload=workloads(), expander=expanders())
    def test_no_task_scheduled_twice(self, workload, expander):
        tasks, loads, quantum, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = run_phase(
            tasks=tasks,
            loads=loads,
            now=0.0,
            quantum=quantum,
            comm=comm,
            expander=expander,
            evaluator=LoadBalancingEvaluator(),
            per_vertex_cost=0.01,
        )
        ids = [e.task.task_id for e in result.schedule]
        assert len(ids) == len(set(ids))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(workload=workloads())
    def test_time_used_within_quantum(self, workload):
        tasks, loads, quantum, remote_cost = workload
        comm = UniformCommunicationModel(remote_cost)
        result = run_phase(
            tasks=tasks,
            loads=loads,
            now=0.0,
            quantum=quantum,
            comm=comm,
            expander=AssignmentOrientedExpander(),
            evaluator=LoadBalancingEvaluator(),
            per_vertex_cost=0.01,
        )
        assert 0.0 < result.time_used <= quantum + 1e-12


class TestQuantumProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        deadlines=st.lists(
            st.floats(min_value=10.0, max_value=1e4), min_size=1, max_size=20
        ),
        loads=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=8
        ),
    )
    def test_quantum_at_least_both_terms_floor(self, deadlines, loads):
        batch = [
            make_task(i, processing_time=1.0, deadline=d)
            for i, d in enumerate(deadlines)
        ]
        policy = SelfAdjustingQuantum()
        quantum = policy.quantum(batch, loads, now=0.0)
        expected = max(
            min_slack(batch, 0.0), min_load(loads), policy.min_quantum
        )
        assert quantum == expected

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        load=st.floats(min_value=0.0, max_value=1e4),
        extra=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_min_load_monotone(self, load, extra):
        assert min_load([load]) >= min_load([load, load - extra])


class TestMaskInvariants:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(indices=st.lists(st.integers(min_value=0, max_value=200),
                            unique=True, min_size=1, max_size=50))
    def test_bitmask_roundtrip(self, indices):
        """The scheduled-task bitmask encodes exactly the set of indices."""
        mask = 0
        for index in indices:
            mask |= 1 << index
        recovered = {i for i in range(201) if (mask >> i) & 1}
        assert recovered == set(indices)
