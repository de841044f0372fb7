"""Tests for schedules and schedule entries."""

import pytest

from repro.core import (
    Schedule,
    ScheduleEntry,
    UniformCommunicationModel,
    make_task,
)


def _entry(task_id, processor, p=10.0, comm=0.0, end=None, deadline=1000.0,
           affinity=(0, 1)):
    task = make_task(
        task_id, processing_time=p, deadline=deadline, affinity=affinity
    )
    return ScheduleEntry(
        task=task,
        processor=processor,
        communication_cost=comm,
        scheduled_end=end if end is not None else p + comm,
    )


class TestScheduleEntry:
    def test_total_cost(self):
        entry = _entry(0, 0, p=10.0, comm=5.0)
        assert entry.total_cost == 15.0


class TestSchedule:
    def test_append_and_iterate(self):
        schedule = Schedule([_entry(0, 0), _entry(1, 1)])
        assert len(schedule) == 2
        assert [e.task.task_id for e in schedule] == [0, 1]

    def test_rejects_duplicate_task(self):
        schedule = Schedule([_entry(0, 0)])
        with pytest.raises(ValueError):
            schedule.append(_entry(0, 1))

    def test_truthiness(self):
        assert not Schedule()
        assert Schedule([_entry(0, 0)])

    def test_task_ids(self):
        schedule = Schedule([_entry(0, 0), _entry(3, 1)])
        assert schedule.task_ids() == {0, 3}

    def test_processors(self):
        schedule = Schedule([_entry(0, 0), _entry(1, 1), _entry(2, 1)])
        assert schedule.processors() == {0, 1}

    def test_makespan(self):
        schedule = Schedule([_entry(0, 0, end=10.0), _entry(1, 1, end=25.0)])
        assert schedule.makespan() == 25.0

    def test_makespan_empty(self):
        assert Schedule().makespan() == 0.0


class TestScheduleValidate:
    def setup_method(self):
        self.comm = UniformCommunicationModel(remote_cost=50.0)

    def test_valid_schedule_passes(self):
        entries = [
            _entry(0, 0, p=10.0, comm=0.0, end=10.0),
            _entry(1, 0, p=5.0, comm=0.0, end=15.0),
        ]
        schedule = Schedule(entries)
        schedule.validate(self.comm, {0: 0.0}, delivery_bound=20.0)

    def test_initial_load_offsets_sequence(self):
        entries = [_entry(0, 0, p=10.0, comm=0.0, end=40.0)]
        Schedule(entries).validate(self.comm, {0: 30.0}, delivery_bound=20.0)

    def test_detects_wrong_cost(self):
        # Task affine with {0,1} but entry claims a communication cost.
        entries = [_entry(0, 0, p=10.0, comm=50.0, end=60.0)]
        with pytest.raises(ValueError, match="cost"):
            Schedule(entries).validate(self.comm, {0: 0.0}, delivery_bound=1.0)

    def test_detects_wrong_cumulative_end(self):
        entries = [
            _entry(0, 0, p=10.0, comm=0.0, end=10.0),
            _entry(1, 0, p=5.0, comm=0.0, end=99.0),
        ]
        with pytest.raises(ValueError, match="scheduled_end"):
            Schedule(entries).validate(self.comm, {0: 0.0}, delivery_bound=1.0)

    def test_detects_deadline_violation(self):
        entries = [_entry(0, 0, p=10.0, comm=0.0, end=10.0, deadline=15.0)]
        with pytest.raises(ValueError, match="deadline"):
            Schedule(entries).validate(
                self.comm, {0: 0.0}, delivery_bound=6.0
            )

    def test_remote_execution_validates_with_comm_cost(self):
        task = make_task(0, processing_time=10.0, deadline=1000.0, affinity=[1])
        entry = ScheduleEntry(
            task=task, processor=0, communication_cost=50.0, scheduled_end=60.0
        )
        Schedule([entry]).validate(self.comm, {0: 0.0}, delivery_bound=10.0)
