"""Kernel work counts, and where RAMP_DONE pass skipping must stay off.

The golden matrix pins what a run produces; these tests pin how much
work the loop does to produce it, as exact, host-independent counts
(iterations and scheduler passes at ``Registry(sample=1)``), and the
cases the golden matrix cannot see: runs whose scheduler passes cost
processor time or draw from the fault RNG, where no pass may be
skipped, and horizons that cut into the wake-up relock window.
"""

import pytest

from repro.faults.injectors import OverheadSpikeInjector
from repro.faults.layer import FaultLayer
from repro.obs.registry import Registry
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.recording import digest_result
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload


def _run(workload, duration, obs=None, record_trace=True, **kwargs):
    taskset = get_workload(workload).prioritized().with_bcet_ratio(0.5)
    return simulate(
        taskset,
        make_scheduler("lpfps"),
        execution_model=GaussianModel(),
        duration=duration,
        seed=1,
        on_miss="record",
        record_trace=record_trace,
        obs=obs,
        **kwargs,
    )


def _work(registry):
    counters = registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name == "kernel.iterations"
        or name.startswith(("sched.invocations.", "sched.skipped."))
    }


class TestWorkPin:
    def test_golden_ins_cell(self):
        # lpfps@ins golden cell (25 ms): the critical-instant busy period,
        # no ramp and no sleep yet, so no pass is skipped or folded here;
        # the kernel ran exactly this before those cuts too.
        registry = Registry(sample=1)
        _run("ins", 25_000.0, obs=registry)
        assert _work(registry) == {
            "kernel.iterations": 22,
            "sched.invocations.init": 1,
            "sched.invocations.release": 9,
            "sched.invocations.completion": 12,
        }

    def test_full_ins_hyperperiod(self):
        # Same cell over its full 5 s hyperperiod.  Before slow-down ramp
        # ends skipped their pass and the wake-up was folded into the
        # timer iteration, this ran 8380 iterations (1448 of them
        # wake-ends) and 6931 passes (2784 of them RAMP_DONE, 1392 of
        # those NO_CHANGE at a slow-down ramp end).
        registry = Registry(sample=1)
        _run("ins", None, obs=registry, record_trace=False)
        assert _work(registry) == {
            "kernel.iterations": 6931,
            "sched.invocations.init": 1,
            "sched.invocations.release": 551,
            "sched.invocations.completion": 2147,
            "sched.invocations.ramp_done": 1392,
            "sched.invocations.wake": 1448,
            "sched.skipped.ramp_done": 1392,
        }
        assert "kernel.boundary.wake" not in registry.snapshot()["counters"]


class TestCostlyPassesAreNeverSkipped:
    """Values captured from the kernel before passes could be skipped.

    Each pass here is charged processor time or draws from the fault
    RNG, so skipping one would move energy, RNG draws and the trace.
    """

    def _observe(self, **kwargs):
        registry = Registry(sample=1)
        result = _run("cnc", 25_000.0, obs=registry, **kwargs)
        return result, registry.snapshot()["counters"]

    def test_scheduler_overhead(self):
        result, counters = self._observe(scheduler_overhead=2.0)
        assert repr(result.energy.scheduler) == "221.64306741392147"
        assert counters["sched.invocations.ramp_done"] == 34
        assert "sched.skipped.ramp_done" not in counters
        assert result.fault_events == []
        assert digest_result(result)["trace_sha256"] == (
            "0836cadd1a532f5cdf6ccb36f762c74d315a1e96e4c5cc87ae84314fa33acf07"
        )

    def test_injecting_fault_layer(self):
        layer = FaultLayer([OverheadSpikeInjector(0.5)], seed=3)
        result, counters = self._observe(faults=layer)
        assert repr(result.energy.scheduler) == "79.74945546964679"
        assert counters["sched.invocations.ramp_done"] == 34
        assert "sched.skipped.ramp_done" not in counters
        assert len(result.fault_events) == 68
        assert digest_result(result)["trace_sha256"] == (
            "d3ae99904892a52f571518d412bf848fb2ffd03960b70cf82ead12c08e8e3d58"
        )

    def test_free_passes_are_skipped(self):
        # The same cell with free passes: the slow-down ramp ends that
        # answered NO_CHANGE are skipped, the restore ramp ends are not.
        _, counters = self._observe()
        assert counters["sched.skipped.ramp_done"] > 0
        assert counters["sched.invocations.ramp_done"] > 0
        assert "sched.decisions.no_change" not in counters


@pytest.mark.parametrize(
    "duration,trace_sha256,energy_total",
    [
        # The first wake-up of lpfps on cnc relocks over [2399.9, 2400.0].
        (
            2399.9500000000003,  # horizon inside the relock window
            "eadebdb592bc1ca4354642a24f3d631330dcd4bb1cd1bed81f480ee213061d00",
            "1478.1917201671768",
        ),
        (
            2400.0,  # horizon at the end of the relock window
            "d9fc38f4d45eca837613405c9176e036eca0530ef2265557460c044b3c6628a6",
            "1478.2417201671765",
        ),
        (
            2400.5,  # the WAKE pass runs and dispatches before the horizon
            "71dce81f6aa57f6f79d73a8ff2975ce2f4062202b7eec87247052908a9318649",
            "1478.7417201671765",
        ),
    ],
)
def test_horizon_cuts_the_relock_window(duration, trace_sha256, energy_total):
    # Values captured from the kernel before the wake-up was folded into
    # the timer iteration.
    digest = digest_result(_run("cnc", duration))
    assert digest["trace_sha256"] == trace_sha256
    assert digest["energy_total"] == energy_total
