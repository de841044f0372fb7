"""Tests for the task model."""

import pytest

from repro.core import Task, TaskSet, TaskValidationError, make_task


class TestTaskValidation:
    def test_accepts_well_formed_task(self):
        task = make_task(1, processing_time=5.0, deadline=100.0)
        assert task.task_id == 1
        assert task.processing_time == 5.0

    def test_rejects_zero_processing_time(self):
        with pytest.raises(TaskValidationError):
            make_task(1, processing_time=0.0, deadline=10.0)

    def test_rejects_negative_processing_time(self):
        with pytest.raises(TaskValidationError):
            make_task(1, processing_time=-1.0, deadline=10.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(TaskValidationError):
            make_task(1, processing_time=1.0, deadline=10.0, arrival_time=-1.0)

    def test_rejects_deadline_at_arrival(self):
        with pytest.raises(TaskValidationError):
            make_task(1, processing_time=1.0, deadline=5.0, arrival_time=5.0)

    def test_rejects_deadline_before_arrival(self):
        with pytest.raises(TaskValidationError):
            make_task(1, processing_time=1.0, deadline=3.0, arrival_time=5.0)

    @pytest.mark.parametrize(
        "field", ["processing_time", "arrival_time", "deadline"]
    )
    def test_rejects_nan_in_any_timing_field(self, field):
        """NaN compares false both ways, so it must fail every check rather
        than slip past them (a NaN deadline would sort anywhere in EDF
        order and could never be met)."""
        fields = dict(processing_time=1.0, arrival_time=0.0, deadline=10.0)
        fields[field] = float("nan")
        with pytest.raises(TaskValidationError):
            Task(task_id=1, **fields)

    def test_affinity_coerced_to_frozenset(self):
        task = make_task(1, processing_time=1.0, deadline=10.0, affinity=[0, 1])
        assert isinstance(task.affinity, frozenset)
        assert task.affinity == frozenset({0, 1})

    def test_task_is_hashable(self):
        task = make_task(1, processing_time=1.0, deadline=10.0, affinity=[2])
        assert task in {task}


class TestTaskProperties:
    def test_has_affinity(self):
        task = make_task(1, processing_time=1.0, deadline=10.0, affinity=[0, 2])
        assert task.has_affinity(0)
        assert task.has_affinity(2)
        assert not task.has_affinity(1)

    def test_slack_at_arrival(self):
        task = make_task(1, processing_time=10.0, deadline=100.0)
        assert task.slack(0.0) == 90.0

    def test_slack_shrinks_with_time(self):
        task = make_task(1, processing_time=10.0, deadline=100.0)
        assert task.slack(50.0) == 40.0

    def test_slack_can_be_negative(self):
        task = make_task(1, processing_time=10.0, deadline=100.0)
        assert task.slack(95.0) == -5.0

    def test_laxity_is_relative(self):
        task = make_task(1, processing_time=10.0, deadline=100.0)
        assert task.laxity() == 10.0

    def test_laxity_uses_arrival(self):
        task = make_task(
            1, processing_time=10.0, deadline=120.0, arrival_time=20.0
        )
        assert task.laxity() == 10.0

    def test_is_expired_matches_paper_predicate(self):
        # Predicate: p_i + t_c > d_i
        task = make_task(1, processing_time=10.0, deadline=100.0)
        assert not task.is_expired(90.0)  # 10 + 90 == 100, still viable
        assert task.is_expired(90.0001)


class TestTaskSet:
    def test_length_and_iteration(self, simple_tasks):
        task_set = TaskSet(simple_tasks)
        assert len(task_set) == 4
        assert [t.task_id for t in task_set] == [0, 1, 2, 3]

    def test_rejects_duplicate_ids_at_construction(self):
        tasks = [
            make_task(1, processing_time=1.0, deadline=10.0),
            make_task(1, processing_time=2.0, deadline=20.0),
        ]
        with pytest.raises(TaskValidationError):
            TaskSet(tasks)

    def test_add_rejects_duplicate(self, simple_tasks):
        task_set = TaskSet(simple_tasks)
        with pytest.raises(TaskValidationError):
            task_set.add(make_task(0, processing_time=1.0, deadline=10.0))

    def test_add_checks_the_id_without_scanning_the_set(self):
        """Counts work, not time: a linear duplicate scan reads every
        member's id on every ``add`` (n^2 / 2 reads for n adds)."""
        reads = [0]

        class CountingTask(Task):
            def __getattribute__(self, name):
                if name == "task_id":
                    reads[0] += 1
                return object.__getattribute__(self, name)

        n = 300
        task_set = TaskSet()
        for task_id in range(n):
            task_set.add(CountingTask(task_id, 1.0, 0.0, 10.0))
        reads_to_build = reads[0]
        assert reads_to_build <= 4 * n
        assert task_set[n - 1] in task_set
        with pytest.raises(TaskValidationError):
            task_set.add(CountingTask(0, 1.0, 0.0, 10.0))
        assert reads[0] - reads_to_build <= 8
        assert len(TaskSet(task_set)) == n
        assert reads[0] <= 8 * n

    def test_add_appends(self):
        task_set = TaskSet()
        task_set.add(make_task(9, processing_time=1.0, deadline=10.0))
        assert len(task_set) == 1

    def test_by_deadline_is_edf_order(self):
        tasks = [
            make_task(0, processing_time=1.0, deadline=30.0),
            make_task(1, processing_time=1.0, deadline=10.0),
            make_task(2, processing_time=1.0, deadline=20.0),
        ]
        ordered = TaskSet(tasks).by_deadline()
        assert [t.task_id for t in ordered] == [1, 2, 0]

    def test_by_deadline_breaks_ties_by_id(self):
        tasks = [
            make_task(5, processing_time=1.0, deadline=10.0),
            make_task(2, processing_time=1.0, deadline=10.0),
        ]
        ordered = TaskSet(tasks).by_deadline()
        assert [t.task_id for t in ordered] == [2, 5]

    def test_min_laxity(self):
        tasks = [
            make_task(0, processing_time=10.0, deadline=100.0),  # laxity 10
            make_task(1, processing_time=10.0, deadline=30.0),  # laxity 3
        ]
        assert TaskSet(tasks).min_laxity() == 3.0

    def test_min_laxity_empty_raises(self):
        with pytest.raises(TaskValidationError):
            TaskSet().min_laxity()

    def test_ids(self, simple_tasks):
        assert TaskSet(simple_tasks).ids() == [0, 1, 2, 3]

    def test_contains(self, simple_tasks):
        task_set = TaskSet(simple_tasks)
        assert simple_tasks[0] in task_set
