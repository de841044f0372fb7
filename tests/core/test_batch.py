"""Tests for the batch lifecycle (paper Section 4)."""

import pytest

from repro.core import Batch, make_task, min_slack


def _task(task_id, p=10.0, d=100.0):
    return make_task(task_id, processing_time=p, deadline=d)


class TestBatchMembership:
    def test_starts_empty(self):
        batch = Batch()
        assert len(batch) == 0
        assert not batch

    def test_add_arrivals(self):
        batch = Batch()
        added = batch.add_arrivals([_task(0), _task(1)])
        assert added == 2
        assert len(batch) == 2
        assert 0 in batch and 1 in batch

    def test_duplicate_arrival_rejected(self):
        batch = Batch([_task(0)])
        with pytest.raises(ValueError):
            batch.add_arrivals([_task(0)])

    def test_edf_order(self):
        batch = Batch([_task(0, d=300.0), _task(1, d=100.0), _task(2, d=200.0)])
        assert [t.task_id for t in batch.edf_order()] == [1, 2, 0]

    def test_tasks_in_admission_order(self):
        batch = Batch([_task(3), _task(1)])
        assert [t.task_id for t in batch.tasks()] == [3, 1]


class TestBatchLifecycle:
    def test_scheduled_tasks_removed(self):
        """Paper: tasks in Batch(j) do not enter Batch(j+1) if scheduled."""
        batch = Batch([_task(0), _task(1), _task(2)])
        removed = batch.remove_scheduled([0, 2])
        assert {t.task_id for t in removed} == {0, 2}
        assert len(batch) == 1
        assert batch.total_scheduled == 2
        assert 0 not in batch and 2 not in batch

    def test_remove_unknown_raises(self):
        batch = Batch([_task(0)])
        with pytest.raises(KeyError):
            batch.remove_scheduled([5])

    def test_drop_expired_uses_paper_predicate(self):
        batch = Batch([
            _task(0, p=10.0, d=100.0),
            _task(1, p=10.0, d=50.0),
        ])
        expired = batch.drop_expired(now=45.0)  # 10 + 45 > 50
        assert [t.task_id for t in expired] == [1]
        assert len(batch) == 1
        assert batch.total_expired == 1

    def test_drop_expired_boundary_keeps_task(self):
        batch = Batch([_task(0, p=10.0, d=50.0)])
        assert batch.drop_expired(now=40.0) == []

    def test_phase_counter(self):
        batch = Batch()
        assert batch.phase_index == 0
        assert batch.advance_phase() == 1
        assert batch.advance_phase() == 2

    def test_full_cycle_invariant(self):
        """admitted == scheduled + expired + remaining at all times."""
        batch = Batch([_task(i, d=100.0 + i) for i in range(10)])
        batch.remove_scheduled([0, 1, 2])
        batch.drop_expired(now=95.0)
        assert (
            batch.total_admitted
            == batch.total_scheduled + batch.total_expired + len(batch)
        )


class TestBatchWithdraw:
    def test_withdraw_removes_without_counting_scheduled(self):
        batch = Batch([_task(0), _task(1), _task(2)])
        withdrawn = batch.withdraw([1])
        assert [t.task_id for t in withdrawn] == [1]
        assert len(batch) == 2
        assert batch.total_withdrawn == 1
        assert batch.total_scheduled == 0

    def test_withdraw_tolerates_missing_ids(self):
        batch = Batch([_task(0)])
        withdrawn = batch.withdraw([0, 99])
        assert [t.task_id for t in withdrawn] == [0]
        assert batch.total_withdrawn == 1

    def test_withdrawn_task_can_rearrive(self):
        """A shed submission's id leaves the batch entirely."""
        batch = Batch([_task(0)])
        batch.withdraw([0])
        assert 0 not in batch
        batch.add_arrivals([_task(0)])
        assert 0 in batch


class TestRaisingCallChangesNothing:
    """A call validates all of its arguments before it mutates anything."""

    @staticmethod
    def _state(batch):
        return (
            [t.task_id for t in batch.tasks()],
            [t.task_id for t in batch.edf_order()],
            min_slack(batch.edf_order(), 0.0),
            batch.drop_expired(-1e9),  # nothing can be due: reads, not drops
            batch.total_admitted,
            batch.total_scheduled,
            batch.total_expired,
            batch.total_withdrawn,
        )

    def _batch(self):
        batch = Batch([_task(0, d=300.0), _task(1, d=100.0), _task(2, d=200.0)])
        batch.remove_scheduled([2])
        batch.withdraw([1])
        batch.add_arrivals([_task(1, d=50.0)])
        return batch

    def test_add_arrivals_with_a_duplicate_admits_none(self):
        batch = self._batch()
        before = self._state(batch)
        with pytest.raises(ValueError):
            batch.add_arrivals([_task(7), _task(8, d=10.0), _task(0)])
        with pytest.raises(ValueError):
            batch.add_arrivals([_task(7), _task(7)])  # within the call
        assert self._state(batch) == before
        assert 7 not in batch and 8 not in batch

    def test_remove_scheduled_with_an_unknown_id_removes_none(self):
        batch = self._batch()
        before = self._state(batch)
        with pytest.raises(KeyError):
            batch.remove_scheduled([0, 99])
        with pytest.raises(KeyError):
            batch.remove_scheduled([0, 0])  # named twice
        assert self._state(batch) == before
        assert 0 in batch
