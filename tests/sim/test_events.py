"""Unit tests for Decision/SleepRequest semantics."""

import pytest

from repro.sim.events import KEEP, NO_CHANGE, Decision, SleepRequest
from repro.tasks.job import Job
from repro.tasks.task import Task


def _job():
    task = Task(name="t", wcet=10.0, period=100.0, priority=1)
    return Job(task, index=0, release_time=0.0, execution_time=10.0)


class TestDecision:
    def test_default_keeps_active(self):
        assert Decision().keeps_active
        assert NO_CHANGE.keeps_active

    def test_explicit_idle_does_not_keep(self):
        assert not Decision(run=None).keeps_active

    def test_job_decision(self):
        job = _job()
        d = Decision(run=job)
        assert d.run is job
        assert not d.keeps_active

    def test_sleep_with_job_rejected(self):
        with pytest.raises(ValueError):
            Decision(run=_job(), sleep=SleepRequest(until=100.0))

    def test_sleep_with_idle_allowed(self):
        d = Decision(run=None, sleep=SleepRequest(until=100.0))
        assert d.sleep.until == 100.0

    def test_sleep_with_keep_allowed(self):
        # KEEP + sleep is legal: the engine validates no job is active.
        Decision(sleep=SleepRequest(until=100.0))

    def test_speed_target_bounds(self):
        Decision(speed_target=0.5)
        Decision(speed_target=1.0)
        with pytest.raises(ValueError):
            Decision(speed_target=0.0)
        with pytest.raises(ValueError):
            Decision(speed_target=1.5)

    def test_restore_fields_validated(self):
        Decision(restore_at=5.0, restore_target=0.5)
        with pytest.raises(ValueError):
            Decision(restore_target=0.0)
        with pytest.raises(ValueError):
            Decision(restore_target=float("nan"))
        with pytest.raises(ValueError):
            Decision(run=None, sleep=SleepRequest(until=100.0), restore_at=50.0)

    def test_immutable(self):
        d = Decision(run=None)
        for name in ("run", "speed_target", "sleep", "restore_at", "restore_target"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
            with pytest.raises(AttributeError):
                delattr(d, name)
        with pytest.raises(AttributeError):
            d.extra = 1

    def test_keep_survives_pickle_and_copy(self):
        import copy
        import pickle

        assert pickle.loads(pickle.dumps(NO_CHANGE)).keeps_active
        assert copy.deepcopy(Decision()).run is KEEP

    def test_value_equality(self):
        job = _job()
        assert Decision(run=job) == Decision(run=job)
        assert Decision(run=job) != Decision(run=None)
        assert Decision() == NO_CHANGE


class TestSleepRequest:
    def test_defaults(self):
        req = SleepRequest()
        assert req.until is None
        assert req.start_at is None

    def test_threshold_style(self):
        req = SleepRequest(until=None, start_at=150.0)
        assert req.start_at == 150.0

    def test_immutable(self):
        req = SleepRequest(until=100.0)
        with pytest.raises(AttributeError):
            req.until = 5.0
        assert req == SleepRequest(until=100.0)
