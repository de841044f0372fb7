"""``Projection`` against the renaming it replaced.

:func:`project_tasks` below is the body every host used to call on its
whole batch, every phase: the oracle.  A :class:`Projection` must agree
with it element by element on any view — a permutation of the machine, a
proper subset (a domain, or survivors of a loss), a superset with
late-joined ids beyond the placement, the empty view — and must hand back
every task the renaming leaves alone as the very object it was given.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from hypothesis import given, settings, strategies as st

from repro.core import make_task
from repro.core.affinity import Projection
from repro.core.task import Task


def project_tasks(
    tasks: Iterable[Task], workers: Sequence[int]
) -> list[Task]:
    """Re-express global affinities against an ordered worker subset."""
    positions = {worker: slot for slot, worker in enumerate(workers)}
    projected = []
    for task in tasks:
        local = frozenset(
            positions[w] for w in task.affinity if w in positions
        )
        projected.append(
            task if local == task.affinity else replace(task, affinity=local)
        )
    return projected


@st.composite
def views(draw):
    """``(workers, M)``: a host's slot order over an ``M``-processor placement."""
    m = draw(st.integers(min_value=1, max_value=6))
    machine = list(range(m))
    late = st.lists(
        st.integers(min_value=m, max_value=m + 4), unique=True, max_size=3
    )
    workers = draw(
        st.one_of(
            st.permutations(machine),
            st.lists(st.sampled_from(machine), unique=True, max_size=m - 1),
            st.tuples(st.permutations(machine), late).map(
                lambda parts: list(parts[0]) + parts[1]
            ),
            late.map(lambda ids: machine + sorted(ids)),
            st.just([]),
        )
    )
    return tuple(workers), m


@st.composite
def batches(draw, m: int):
    affinity = st.one_of(
        st.just(frozenset()),
        st.just(frozenset(range(m))),
        st.frozensets(st.integers(min_value=0, max_value=m - 1)),
    )
    sets = draw(st.lists(affinity, max_size=8))
    return [
        make_task(i, 5.0, 100.0, affinity=chosen)
        for i, chosen in enumerate(sets)
    ]


class TestAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_element_by_element_and_same_objects(self, data):
        workers, m = data.draw(views())
        tasks = data.draw(batches(m))
        expected = project_tasks(tasks, workers)
        view = Projection(workers, m)
        projected = view.project(tasks)
        assert list(projected) == expected
        for task, local, oracle in zip(tasks, projected, expected):
            assert local.affinity == oracle.affinity
            assert (local is task) == (oracle is task)
        # A second phase over the same objects is served from the memo.
        assert all(
            a is b for a, b in zip(view.project(tasks), projected)
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rename_is_the_oracle_on_one_task(self, data):
        workers, m = data.draw(views())
        for task in data.draw(batches(m)):
            (expected,) = project_tasks([task], workers)
            assert Projection(workers, m).rename(task) == expected


class TestIdentityShortcut:
    def _tasks(self):
        return [
            make_task(0, 5.0, 100.0, affinity=[0]),
            make_task(1, 5.0, 100.0, affinity=[1, 2]),
            make_task(2, 5.0, 100.0, affinity=[]),
        ]

    def test_the_whole_machine_in_order_returns_its_input(self):
        tasks = self._tasks()
        assert Projection((0, 1, 2), 3).project(tasks) is tasks

    def test_late_joins_beyond_the_placement_keep_the_shortcut(self):
        tasks = self._tasks()
        view = Projection((0, 1, 2, 3, 7), 3)
        assert view.identity
        assert view.project(tasks) is tasks
        assert project_tasks(tasks, view.workers) == tasks

    def test_slot_order_not_size_earns_it(self):
        assert not Projection((1, 0, 2), 3).identity
        assert not Projection((0, 1), 3).identity
        assert not Projection((0, 2, 3), 3).identity
        assert Projection((), 0).identity


class TestMemo:
    def test_a_new_object_under_a_known_id_is_projected_again(self):
        view = Projection((2, 0), 3)
        task = make_task(0, 5.0, 100.0, affinity=[2])
        (first,) = view.project([task])
        assert first.affinity == frozenset({0})
        moved = replace(task, affinity=frozenset({0}))
        (second,) = view.project([moved])
        assert second.affinity == frozenset({1})

    def test_the_memo_holds_only_the_last_batch(self):
        view = Projection((1, 2), 3)
        tasks = [make_task(i, 5.0, 100.0, affinity=[i % 3]) for i in range(9)]
        view.project(tasks)
        assert len(view._memo) == 9
        view.project(tasks[4:6])
        assert sorted(view._memo) == [4, 5]
        view.project([])
        assert view._memo == {}
