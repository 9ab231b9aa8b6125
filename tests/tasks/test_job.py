"""Unit tests for run-time Job objects."""

import copy
import pickle

import pytest

from repro.errors import InvalidTaskError
from repro.tasks.job import Job
from repro.tasks.task import Task


def _task(**kwargs):
    defaults = dict(name="t", wcet=20.0, period=100.0, bcet=5.0, priority=1)
    defaults.update(kwargs)
    return Task(**defaults)


class TestJobBasics:
    def test_name_combines_task_and_index(self):
        job = Job(_task(), index=3, release_time=300.0, execution_time=10.0)
        assert job.name == "t#3"

    def test_absolute_deadline(self):
        job = Job(_task(), index=0, release_time=50.0, execution_time=10.0)
        assert job.absolute_deadline == 150.0

    def test_next_release(self):
        job = Job(_task(), index=0, release_time=50.0, execution_time=10.0)
        assert job.next_release == 150.0

    def test_priority_passthrough(self):
        job = Job(_task(priority=7), index=0, release_time=0.0, execution_time=10.0)
        assert job.priority == 7

    def test_priority_missing_raises(self):
        job = Job(_task(priority=None), index=0, release_time=0.0, execution_time=10.0)
        with pytest.raises(InvalidTaskError):
            _ = job.priority

    def test_execution_time_outside_range_rejected(self):
        with pytest.raises(InvalidTaskError):
            Job(_task(), index=0, release_time=0.0, execution_time=25.0)
        with pytest.raises(InvalidTaskError):
            Job(_task(), index=0, release_time=0.0, execution_time=1.0)

    def test_execution_time_float_jitter_snapped(self):
        job = Job(_task(), index=0, release_time=0.0,
                  execution_time=20.0 + 1e-12)
        assert job.execution_time == 20.0


class TestJobProgress:
    def test_advance_accumulates(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        job.advance(4.0)
        job.advance(3.0)
        assert job.executed == pytest.approx(7.0)
        assert job.remaining == pytest.approx(3.0)

    def test_advance_rejects_negative(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        with pytest.raises(ValueError):
            job.advance(-1.0)

    def test_remaining_wcet_budgets_worst_case(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        job.advance(6.0)
        # Actual remaining is 4, but the scheduler must budget C - E = 14.
        assert job.remaining == pytest.approx(4.0)
        assert job.remaining_wcet == pytest.approx(14.0)

    def test_remaining_never_negative(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        job.advance(15.0)
        assert job.remaining == 0.0

    def test_completion_and_response(self):
        job = Job(_task(), index=0, release_time=100.0, execution_time=10.0)
        assert job.response_time is None
        assert not job.completed
        job.completion_time = 130.0
        assert job.completed
        assert job.response_time == pytest.approx(30.0)


class TestDeadlineDetection:
    def test_incomplete_past_deadline(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        assert not job.missed_deadline(now=99.0)
        assert job.missed_deadline(now=101.0)

    def test_completed_late(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        job.completion_time = 120.0
        assert job.missed_deadline(now=200.0)

    def test_completed_on_time(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        job.completion_time = 100.0
        assert not job.missed_deadline(now=200.0)


class TestJobRecord:
    """The slot record keeps the dataclass's checks and value semantics."""

    def test_out_of_range_demand_message(self):
        with pytest.raises(InvalidTaskError) as excinfo:
            Job(_task(), index=0, release_time=0.0, execution_time=25.0)
        assert str(excinfo.value) == "t#0: execution time 25.0 outside [5.0, 20.0]"
        with pytest.raises(InvalidTaskError) as excinfo:
            Job(_task(), index=4, release_time=0.0, execution_time=1.0)
        assert str(excinfo.value) == "t#4: execution time 1.0 outside [5.0, 20.0]"

    @pytest.mark.parametrize("demand", [0.0, -1.0])
    def test_non_positive_faulted_demand_message(self, demand):
        with pytest.raises(InvalidTaskError) as excinfo:
            Job(_task(), index=2, release_time=0.0, execution_time=demand,
                faulted=True)
        assert str(excinfo.value) == (
            f"t#2: faulted execution time must be > 0, got {demand}"
        )

    def test_faulted_demand_may_exceed_wcet(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=30.0,
                  faulted=True)
        assert job.execution_time == 30.0

    @pytest.mark.parametrize(
        "demand,snapped",
        [(20.0 + 1e-12, 20.0), (5.0 - 1e-12, 5.0), (12.5, 12.5)],
    )
    def test_demand_snaps_into_range(self, demand, snapped):
        job = Job(_task(), index=0, release_time=0.0, execution_time=demand)
        assert job.execution_time == snapped

    @pytest.mark.parametrize("deadline", [None, 60.0])
    def test_absolute_deadline_is_release_plus_deadline(self, deadline):
        task = _task(deadline=deadline)
        job = Job(task, index=1, release_time=137.25, execution_time=10.0)
        assert job.absolute_deadline == 137.25 + task.deadline

    def test_no_instance_dict(self):
        job = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        assert not hasattr(job, "__dict__")
        with pytest.raises(AttributeError):
            job.bogus = 1

    def test_value_equality_and_unhashable(self):
        a = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        b = Job(_task(), index=0, release_time=0.0, execution_time=10.0)
        assert a == b
        b.executed = 1.0
        assert a != b
        with pytest.raises(TypeError):
            hash(a)

    def _assert_same(self, copied, job):
        assert copied is not job
        assert copied == job
        assert copied.absolute_deadline == job.absolute_deadline
        assert repr(copied) == repr(job)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        job = Job(_task(), index=3, release_time=300.0, execution_time=12.0,
                  executed=4.0, start_time=301.0, preemptions=2)
        self._assert_same(pickle.loads(pickle.dumps(job, protocol)), job)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, clone):
        job = Job(_task(), index=3, release_time=300.0, execution_time=12.0,
                  completion_time=320.0, faulted=False)
        self._assert_same(clone(job), job)
