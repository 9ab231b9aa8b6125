"""Engine edge cases: simultaneity, horizons, overload, degenerate sets."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.lpfps import LpfpsScheduler
from repro.power.processor import ProcessorSpec
from repro.schedulers.fps import FpsScheduler
from repro.schedulers.powerdown import TimerPowerDownFps
from repro.sim.engine import simulate
from repro.tasks.generation import WcetModel
from repro.tasks.priority import rate_monotonic
from repro.tasks.task import Task, TaskSet

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSimultaneousEvents:
    def test_completion_and_release_same_instant(self):
        """A job finishing exactly when the next task releases: dispatch is
        seamless, no idle gap, no double execution."""
        ts = rate_monotonic(TaskSet([
            Task(name="a", wcet=50.0, period=100.0),
            Task(name="b", wcet=25.0, period=200.0),
        ]))
        result = simulate(ts, FpsScheduler(), duration=400.0, record_trace=True)
        busy = result.trace.busy_intervals()
        assert busy[0] == (0.0, 75.0)  # a then b back-to-back
        assert not result.missed

    def test_all_tasks_same_period(self):
        ts = rate_monotonic(TaskSet([
            Task(name=f"t{i}", wcet=10.0, period=100.0) for i in range(5)
        ]))
        result = simulate(ts, FpsScheduler(), duration=300.0, record_trace=True)
        assert not result.missed
        # Declaration order is preserved within the shared priority level.
        first_cycle = [s.task for s in result.trace.segments if s.state == "run"][:5]
        assert first_cycle == [f"t{i}" for i in range(5)]

    def test_release_exactly_at_horizon(self):
        ts = TaskSet([Task(name="a", wcet=10.0, period=100.0, priority=0)])
        result = simulate(ts, FpsScheduler(), duration=200.0)
        # Two completed jobs; the release at t=200 never materialises.
        assert result.jobs_completed == 2


class TestDegenerateSets:
    def test_task_filling_entire_period(self):
        ts = TaskSet([Task(name="a", wcet=100.0, period=100.0, priority=0)])
        result = simulate(ts, FpsScheduler(), duration=500.0)
        assert not result.missed
        assert result.energy.idle == 0.0
        assert result.average_power == pytest.approx(1.0)

    def test_lpfps_cannot_slow_a_saturating_task(self):
        ts = TaskSet([Task(name="a", wcet=100.0, period=100.0, priority=0)])
        result = simulate(ts, LpfpsScheduler(), spec=ProcessorSpec.ideal(),
                          duration=500.0)
        assert not result.missed
        assert result.speed_changes == 0

    def test_very_short_horizon(self):
        ts = TaskSet([Task(name="a", wcet=10.0, period=100.0, priority=0)])
        result = simulate(ts, FpsScheduler(), duration=5.0)
        # The job is mid-flight at the horizon; no miss (deadline at 100).
        assert result.jobs_completed == 0
        assert not result.missed
        assert result.energy.total == pytest.approx(5.0)

    def test_tiny_wcet_relative_to_period(self):
        ts = TaskSet([Task(name="a", wcet=0.5, period=1_000_000.0, priority=0)])
        result = simulate(ts, LpfpsScheduler(), duration=2_000_000.0)
        assert not result.missed
        assert result.sleep_entries >= 1


class TestOverloadRecording:
    def _overloaded(self):
        return rate_monotonic(TaskSet([
            Task(name="hi", wcet=60.0, period=100.0),
            Task(name="lo", wcet=60.0, period=120.0),
        ]))

    def test_fps_overload_records_and_survives(self):
        result = simulate(self._overloaded(), FpsScheduler(),
                          duration=3_000.0, on_miss="record")
        assert result.missed
        # The kernel model delays re-releases of the overrunning task, so
        # the engine stays live and work conserving.
        assert result.jobs_completed > 0
        assert result.energy.idle == 0.0

    def test_lpfps_overload_records_and_survives(self):
        result = simulate(self._overloaded(), LpfpsScheduler(),
                          duration=3_000.0, on_miss="record")
        assert result.missed
        assert result.jobs_completed > 0

    def test_late_release_catches_up(self):
        """After an overrun, the next release is already due and must enter
        the run queue immediately on completion."""
        result = simulate(self._overloaded(), FpsScheduler(),
                          duration=3_000.0, on_miss="record",
                          record_trace=True)
        releases = result.trace.events_of_kind("release")
        assert len(releases) > 2


class TestSleepEdgeCases:
    def test_wakeup_longer_than_idle_gap(self):
        """Sleeping is skipped when the timer would already have fired."""
        spec = ProcessorSpec(wakeup_cycles=10_000.0)  # 100 us wakeup
        ts = TaskSet([Task(name="a", wcet=50.0, period=100.0, priority=0)])
        result = simulate(ts, TimerPowerDownFps(), spec=spec, duration=1_000.0)
        assert result.sleep_entries == 0
        assert not result.missed

    def test_sleep_through_horizon(self):
        ts = TaskSet([Task(name="a", wcet=10.0, period=10_000.0, priority=0)])
        result = simulate(ts, TimerPowerDownFps(), duration=5_000.0)
        assert result.sleep_entries == 1
        assert result.energy.sleep == pytest.approx(0.05 * (5_000.0 - 10.0))

    def test_lpfps_idles_when_powerdown_not_worthwhile(self):
        spec = ProcessorSpec(wakeup_cycles=10_000.0)
        ts = TaskSet([Task(name="a", wcet=50.0, period=100.0, priority=0)])
        result = simulate(ts, LpfpsScheduler(use_dvs=False), spec=spec,
                          duration=1_000.0)
        assert result.sleep_entries == 0
        assert result.energy.idle > 0.0


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        ts = rate_monotonic(TaskSet([
            Task(name="a", wcet=10.0, period=100.0, bcet=2.0),
            Task(name="b", wcet=30.0, period=300.0, bcet=6.0),
        ]))
        from repro.tasks.generation import GaussianModel

        results = [
            simulate(ts, LpfpsScheduler(), execution_model=GaussianModel(),
                     duration=30_000.0, seed=9)
            for _ in range(2)
        ]
        assert results[0].energy.total == results[1].energy.total
        assert results[0].speed_changes == results[1].speed_changes
        assert results[0].sleep_entries == results[1].sleep_entries


class TestNonFiniteHorizon:
    """An infinite horizon never ends the event loop, so the kernel
    refuses it up front.  Each call runs in a subprocess under a timeout:
    a kernel without the check hangs there instead of in the suite."""

    @staticmethod
    def _run(args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        try:
            return subprocess.run(
                [sys.executable, *args], capture_output=True, text=True,
                env=env, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"{args} still running after 60 s")

    @pytest.mark.parametrize("duration", ["inf", "nan", "-inf"])
    def test_simulate_refuses_at_once(self, duration):
        done = self._run([
            "-c",
            "from repro.errors import ConfigurationError\n"
            "from repro.schedulers.fps import FpsScheduler\n"
            "from repro.sim.engine import simulate\n"
            "from repro.workloads.registry import get_workload\n"
            "try:\n"
            "    simulate(get_workload('cnc').prioritized(), FpsScheduler(),\n"
            f"             duration=float({duration!r}))\n"
            "except ConfigurationError as exc:\n"
            "    print(exc)\n",
        ])
        assert done.stdout.startswith("duration must be finite and > 0"), done

    def test_cli_duration_flag_is_refused(self):
        done = self._run(
            ["-m", "repro", "simulate", "--app", "cnc", "--duration", "inf"]
        )
        assert done.returncode != 0
        assert "duration must be finite and > 0" in done.stderr
