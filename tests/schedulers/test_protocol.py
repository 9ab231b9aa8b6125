"""Registry-wide conformance to the Scheduler contract.

The kernel reads the policy surface directly — ``name``,
``run_queue_key``, ``requires_priorities``, ``tick_interval``,
``ramp_done_is_noop``, ``setup``, ``schedule`` — with no ``getattr``
fallbacks, so every
registered policy must carry every member with a sane type.  These tests
pin that for the whole registry, plus the abstractness of the base class
and the setup hook actually being invoked.
"""

import inspect

import pytest

from repro.schedulers.base import Scheduler
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.sim.dispatch import Scheduler as DispatchScheduler
from repro.sim.engine import simulate
from repro.workloads.registry import get_workload

ALL_NAMES = available_schedulers()


def example_taskset():
    return get_workload("example").prioritized()


class TestContractSurface:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_is_scheduler_subclass(self, name):
        scheduler = make_scheduler(name)
        assert isinstance(scheduler, Scheduler)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_name_is_nonempty_string(self, name):
        scheduler = make_scheduler(name)
        assert isinstance(scheduler.name, str)
        assert scheduler.name

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_run_queue_key_is_callable(self, name):
        scheduler = make_scheduler(name)
        assert callable(scheduler.run_queue_key)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_requires_priorities_is_bool(self, name):
        scheduler = make_scheduler(name)
        assert isinstance(scheduler.requires_priorities, bool)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_tick_interval_is_none_or_positive(self, name):
        scheduler = make_scheduler(name)
        tick = scheduler.tick_interval
        assert tick is None or (isinstance(tick, float) and tick > 0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_ramp_done_is_noop_is_bool(self, name):
        scheduler = make_scheduler(name)
        assert isinstance(scheduler.ramp_done_is_noop, bool)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_setup_accepts_kernel(self, name):
        scheduler = make_scheduler(name)
        sig = inspect.signature(scheduler.setup)
        assert len(sig.parameters) == 1

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_schedule_is_concrete(self, name):
        scheduler = make_scheduler(name)
        assert not getattr(scheduler.schedule, "__isabstractmethod__", False)


class TestBaseClass:
    def test_base_is_abstract(self):
        with pytest.raises(TypeError):
            Scheduler()

    def test_base_reexport_is_the_kernel_class(self):
        assert Scheduler is DispatchScheduler

    def test_base_defaults(self):
        assert Scheduler.requires_priorities is True
        assert Scheduler.tick_interval is None
        assert Scheduler.ramp_done_is_noop is False

    def test_setup_is_invoked_before_first_decision(self):
        calls = []

        class Probe(Scheduler):
            name = "probe"

            def setup(self, kernel):
                calls.append(("setup", kernel.now))

            def schedule(self, kernel, event):
                if not any(c[0] == "schedule" for c in calls):
                    calls.append(("schedule", kernel.now))
                kernel.move_due_releases()
                from repro.sim.events import Decision

                job = kernel.active_job
                if job is None and kernel.run_queue.peek() is not None:
                    job = kernel.run_queue.pop()
                return Decision(run=job)

        simulate(example_taskset(), Probe(), duration=400.0)
        assert calls[0][0] == "setup"
        assert calls[1][0] == "schedule"


class TestEndToEnd:
    @pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "yds"])
    def test_registry_policy_completes_a_run(self, name):
        scheduler = make_scheduler(name)
        result = simulate(
            example_taskset(),
            scheduler,
            duration=400.0,
            on_miss="record",
        )
        assert result.jobs_completed > 0
        # A policy that keeps ramp_done_is_noop current keeps it a bool.
        assert isinstance(scheduler.ramp_done_is_noop, bool)
