"""The supervised pool executor under real worker deaths.

These tests SIGKILL genuine worker processes (via the kill-worker chaos
plan riding inside a cell) and assert the supervisor's contract: a
mid-``run_many`` :class:`BrokenProcessPool` never escapes, surviving
cells keep their bit-identical results, and a poison-pill cell exhausts
its retry budget into a :class:`CellFailure` (contain) or
:class:`~repro.errors.ExecutionError` (raise) without taking the
campaign down.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ExecutionError
from repro.experiments.runner import CellFailure, RunSpec, run_many
from repro.faults.chaos import kill_worker, slow_cell, with_chaos
from repro.obs.registry import Registry, installed
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload

pytestmark = pytest.mark.chaos

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _multicore(monkeypatch):
    # run_many clamps the pool width to the CPU count and runs serially
    # on a single core — which would execute kill-worker chaos in *this*
    # process.  Pretend to have cores so the supervised pool engages and
    # kills land on genuine worker processes, whatever box CI runs on.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def _spec(seed=1):
    taskset = get_workload("cnc").prioritized()
    return RunSpec(
        taskset=taskset,
        scheduler="lpfps",
        seed=seed,
        execution_model=GaussianModel(),
        duration=9_600.0,
    )


def _sig(result):
    return (
        repr(result.energy.total),
        repr(result.average_power),
        result.jobs_completed,
        result.context_switches,
    )


class TestKillOnce:
    """A worker dies once mid-campaign; the supervisor recovers fully."""

    def test_contain_mode_recovers_every_cell(self, tmp_path):
        specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
        reference = [_sig(r) for r in run_many(list(specs), jobs=1)]
        chaotic = list(specs)
        chaotic[1] = with_chaos(specs[1], kill_worker(marker=tmp_path / "fired"))
        registry = Registry()
        with installed(registry):
            results = run_many(chaotic, jobs=2, failures="contain")
        assert not any(isinstance(r, CellFailure) for r in results)
        assert [_sig(r) for r in results] == reference
        assert registry.counter_value("runner.pool_rebuilds") >= 1
        assert (tmp_path / "fired").exists()

    def test_raise_mode_broken_pool_never_escapes(self, tmp_path):
        # Regression: a worker death mid-dispatch used to surface as a
        # raw BrokenProcessPool out of run_many.  Now the supervisor
        # quarantines the cells in flight, and the campaign still
        # returns every result.
        specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
        reference = [_sig(r) for r in run_many(list(specs), jobs=1)]
        chaotic = list(specs)
        chaotic[2] = with_chaos(specs[2], kill_worker(marker=tmp_path / "fired"))
        results = run_many(chaotic, jobs=2)  # failures="raise", the default
        assert [_sig(r) for r in results] == reference

    def test_retried_cell_result_identical_to_serial(self, tmp_path):
        spec = _spec(seed=7)
        (reference,) = run_many([RunSpec(
            taskset=spec.taskset,
            scheduler="lpfps",
            seed=7,
            execution_model=GaussianModel(),
            duration=9_600.0,
        )], jobs=1)
        chaotic = [
            with_chaos(spec, kill_worker(marker=tmp_path / "fired")),
            _spec(seed=8),
        ]
        results = run_many(chaotic, jobs=2, failures="contain")
        assert _sig(results[0]) == _sig(reference)


class TestPoisonPill:
    """A cell that kills every worker it touches must not win."""

    def test_contain_mode_exhausts_budget_into_cell_failure(self):
        specs = [with_chaos(_spec(seed=1), kill_worker())] + [
            _spec(seed=s) for s in (2, 3, 4)
        ]
        registry = Registry()
        with installed(registry):
            results = run_many(specs, jobs=2, failures="contain", retries=1)
        failure = results[0]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "BrokenProcessPool"
        assert failure.error_kind == "internal"
        assert failure.attempts == 2  # initial dispatch + 1 retry
        assert "retry budget" in failure.message
        for r in results[1:]:
            assert not isinstance(r, CellFailure)
            assert r.jobs_completed > 0
        assert registry.counter_value("runner.pool_rebuilds") >= 2
        assert registry.counter_value("runner.cell_failures") == 1

    def test_raise_mode_exhausts_budget_into_execution_error(self):
        specs = [
            _spec(seed=1),
            _spec(seed=2),
            with_chaos(_spec(seed=3), kill_worker()),
            _spec(seed=4),
        ]
        with pytest.raises(ExecutionError, match="killed its worker"):
            run_many(specs, jobs=2, retries=0)

    def test_checkpoint_preserves_completed_cells_around_failure(self, tmp_path):
        # Two poison cells so the resumed campaign still has > 1 pending
        # cell and stays on the supervised pool path (a lone pending
        # cell runs serially, where a process-level kill has no
        # supervisor above it to contain it).
        def campaign():
            return [
                _spec(seed=1),
                with_chaos(_spec(seed=2), kill_worker()),
                _spec(seed=3),
                with_chaos(_spec(seed=4), kill_worker()),
            ]

        run_many(campaign(), jobs=2, failures="contain", retries=1,
                 checkpoint=tmp_path)
        # The journal holds the clean cells; resuming hits them and only
        # re-attempts the poison cells.
        registry = Registry()
        with installed(registry):
            resumed = run_many(
                campaign(), jobs=2, failures="contain", retries=1,
                checkpoint=tmp_path,
            )
        assert registry.counter_value("runner.checkpoint_hits") == 2
        assert resumed[0].metadata["checkpoint"] == "hit"
        assert resumed[2].metadata["checkpoint"] == "hit"
        assert isinstance(resumed[1], CellFailure)
        assert isinstance(resumed[3], CellFailure)


#: A raise-mode campaign whose killer is in the first wave, run in a
#: child process: a supervisor that reran the killer itself would die.
_FIRST_WAVE_KILLER = """
import os
os.cpu_count = lambda: 4

from repro.errors import ExecutionError
from repro.experiments.runner import RunSpec, run_many
from repro.faults.chaos import kill_worker, with_chaos
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload

taskset = get_workload("cnc").prioritized()
specs = [
    RunSpec(taskset=taskset, scheduler="lpfps", seed=seed,
            execution_model=GaussianModel(), duration=9_600.0)
    for seed in (1, 2, 3, 4)
]
specs[0] = with_chaos(specs[0], kill_worker())
try:
    run_many(specs, jobs=2)
except ExecutionError as exc:
    print(exc)
"""


def test_raise_mode_killer_in_the_first_wave_raises_and_the_caller_survives():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_WAVE_KILLER],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    assert done.stdout.startswith("campaign cell 0 "), done.stdout
    assert "killed its worker process 3 time(s)" in done.stdout


class TestBlame:
    """Only a cell that breaks a pool on its own is ever charged."""

    def test_innocent_cell_in_flight_with_a_killer_is_not_failed(self):
        # Regression: with retries=0 every cell in flight when the
        # worker died was given up at once, the slow innocent one too.
        specs = [
            with_chaos(_spec(seed=1), slow_cell(0.2)),
            with_chaos(_spec(seed=2), kill_worker()),
            _spec(seed=3),
            _spec(seed=4),
        ]
        reference = _sig(run_many([_spec(seed=1)], jobs=1)[0])
        results = run_many(specs, jobs=2, failures="contain", retries=0)
        assert [isinstance(r, CellFailure) for r in results] == [
            False, True, False, False,
        ]
        assert _sig(results[0]) == reference
        assert results[1].attempts == 1

    def test_raise_mode_names_the_killer_not_a_bystander(self):
        # The slow cell is still running when the pill kills its worker.
        specs = [
            _spec(seed=1),
            with_chaos(_spec(seed=2), slow_cell(0.2)),
            with_chaos(_spec(seed=3), kill_worker()),
            _spec(seed=4),
        ]
        with pytest.raises(ExecutionError, match=r"campaign cell 2 "):
            run_many(specs, jobs=2, retries=0)

    def test_poison_with_a_full_window_in_flight_fails_alone(self):
        # Two workers keep four cells in flight (one running, one queued
        # each), so the pill breaks a pool with three bystanders in it.
        workers = 2
        seeds = range(1, 2 * workers + 3)
        reference = [_sig(r) for r in run_many([_spec(seed=s) for s in seeds], jobs=1)]
        specs = [_spec(seed=s) for s in seeds]
        specs[0] = with_chaos(specs[0], kill_worker())
        registry = Registry()
        with installed(registry):
            results = run_many(specs, jobs=workers, failures="contain", retries=1)
        failure = results[0]
        assert isinstance(failure, CellFailure)
        assert failure.attempts == 2
        assert [_sig(r) for r in results[1:]] == reference[1:]
        assert registry.counter_value("runner.cell_failures") == 1


class TestSlowCell:
    def test_slow_cell_is_benign(self):
        specs = [with_chaos(_spec(seed=1), slow_cell(0.05)), _spec(seed=2)]
        reference = [_sig(r) for r in run_many([_spec(seed=1), _spec(seed=2)], jobs=1)]
        results = run_many(specs, jobs=2)
        assert [_sig(r) for r in results] == reference
