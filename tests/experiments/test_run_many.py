"""Parallel campaign executor: run_many(jobs=N) must equal serial exactly.

Every :class:`~repro.experiments.runner.RunSpec` cell carries its own seed
and builds its own scheduler and fault layer, so fanning the grid out over
worker processes may change wall time but never output.  These tests pin
that equivalence — including the figure8 sweep from the acceptance
criteria — plus the executor's fallback behaviour.
"""

import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figure8 import run_figure8
from repro.experiments.runner import RunSpec, resolve_jobs, run_many
from repro.faults.guards import GuardConfig
from repro.faults.injectors import WcetOverrunInjector
from repro.faults.layer import FaultLayer
from repro.schedulers.fps import FpsScheduler
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload


def _grid_specs():
    """A small (scheduler, workload, seed) grid exercising real policies."""
    specs = []
    for policy in ("fps", "lpfps"):
        for app in ("ins", "cnc"):
            taskset = get_workload(app).prioritized().with_bcet_ratio(0.5)
            for seed in (1, 2):
                specs.append(
                    RunSpec(
                        taskset=taskset,
                        scheduler=policy,
                        seed=seed,
                        execution_model=GaussianModel(),
                        duration=50_000.0,
                        on_miss="record",
                    )
                )
    return specs


def _fingerprint(result):
    """Everything observable about a result, repr-exact for floats."""
    return (
        result.scheduler,
        repr(result.energy.active),
        repr(result.energy.idle),
        repr(result.energy.sleep),
        repr(result.energy.ramp),
        repr(result.energy.wakeup),
        result.jobs_completed,
        result.context_switches,
        result.preemptions,
        result.speed_changes,
        result.sleep_entries,
        len(result.deadline_misses),
        sorted((repr(k), repr(v)) for k, v in result.speed_residency.items()),
    )


class TestSerialParallelEquivalence:
    def test_grid_identical_under_jobs_4(self):
        specs = _grid_specs()
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=4)
        assert len(serial) == len(parallel) == len(specs)
        for s, p in zip(serial, parallel):
            assert _fingerprint(s) == _fingerprint(p)

    def test_figure8_sweep_identical_under_jobs_4(self):
        kwargs = dict(ratios=(0.3, 0.8), seeds=(1, 2), duration=200_000.0)
        serial = run_figure8("cnc", **kwargs)
        parallel = run_figure8("cnc", jobs=4, **kwargs)
        assert len(serial.points) == len(parallel.points)
        for s, p in zip(serial.points, parallel.points):
            assert repr(s.fps_power) == repr(p.fps_power)
            assert repr(s.lpfps_power) == repr(p.lpfps_power)
            assert repr(s.reduction) == repr(p.reduction)
            assert s.fps_misses == p.fps_misses
            assert s.lpfps_misses == p.lpfps_misses

    def test_faulted_cells_identical_under_jobs_4(self):
        taskset = get_workload("cnc").prioritized()
        specs = [
            RunSpec(
                taskset=taskset,
                scheduler="lpfps",
                seed=seed,
                duration=48_000.0,
                on_miss="record",
                faults=FaultLayer(
                    injectors=[WcetOverrunInjector(0.3)],
                    guards=GuardConfig.all(),
                    seed=seed,
                ),
            )
            for seed in (1, 2, 3)
        ]
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=3)
        for s, p in zip(serial, parallel):
            assert _fingerprint(s) == _fingerprint(p)
            assert len(s.fault_events) == len(p.fault_events)
            assert len(s.guard_activations) == len(p.guard_activations)


class TestExecutorMechanics:
    def test_results_in_spec_order(self):
        specs = _grid_specs()
        results = run_many(specs, jobs=4)
        for spec, result in zip(specs, results):
            assert result.taskset == spec.taskset.name

    def test_progress_commits_batches_with_one_journal_write_each(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.checkpoint import CheckpointJournal

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        writes = []
        record_many = CheckpointJournal.record_many
        monkeypatch.setattr(
            CheckpointJournal,
            "record_many",
            lambda self, cells: writes.append(len(cells)) or record_many(self, cells),
        )
        specs = _grid_specs()
        batches = []
        run_many(specs, jobs=2, checkpoint=tmp_path, progress=batches.append)
        assert sorted(i for batch in batches for i, _ in batch) == list(
            range(len(specs))
        )
        assert writes == [len(batch) for batch in batches]
        # A resume restores every cell as one batch, in cell order.
        batches.clear()
        run_many(specs, jobs=2, checkpoint=tmp_path, progress=batches.append)
        assert len(batches) == 1
        assert [i for i, _ in batches[0]] == list(range(len(specs)))
        assert all(r.metadata["checkpoint"] == "hit" for _, r in batches[0])

    def test_factory_scheduler_supported(self):
        taskset = get_workload("cnc").prioritized()
        spec = RunSpec(taskset=taskset, scheduler=FpsScheduler, duration=9_600.0)
        (result,) = run_many([spec], jobs=2)
        assert result.scheduler == "FPS"

    def test_unpicklable_specs_fall_back_to_serial(self):
        taskset = get_workload("cnc").prioritized()
        local = FpsScheduler  # closure makes the factory unpicklable
        spec = RunSpec(
            taskset=taskset, scheduler=lambda: local(), duration=9_600.0
        )
        (result,) = run_many([spec], jobs=2)
        assert result.scheduler == "FPS"

    def test_default_jobs_is_serial(self):
        taskset = get_workload("cnc").prioritized()
        spec = RunSpec(taskset=taskset, scheduler="fps", duration=9_600.0)
        (result,) = run_many([spec])
        assert result.jobs_completed > 0

    def test_jobs_auto_matches_serial_output(self):
        """``jobs=0`` (one worker per CPU) never changes results."""
        specs = _grid_specs()[:4]
        serial = run_many(specs, jobs=1)
        auto = run_many(specs, jobs=0)
        for s, p in zip(serial, auto):
            assert _fingerprint(s) == _fingerprint(p)

    def test_record_trace_round_trips(self):
        taskset = get_workload("cnc").prioritized()
        specs = [
            RunSpec(
                taskset=taskset,
                scheduler="lpfps",
                duration=9_600.0,
                record_trace=True,
            )
            for _ in range(2)
        ]
        for result in run_many(specs, jobs=2):
            assert result.trace is not None
            assert len(result.trace.segments) > 0

    def test_on_miss_raise_propagates(self):
        from repro.errors import DeadlineMissError
        from repro.tasks.priority import rate_monotonic
        from repro.tasks.task import Task, TaskSet

        overloaded = rate_monotonic(
            TaskSet(
                name="overload",
                tasks=[
                    Task("a", wcet=800.0, period=1000.0),
                    Task("b", wcet=800.0, period=1000.0),
                ],
            )
        )
        specs = [
            RunSpec(
                taskset=overloaded,
                scheduler="fps",
                duration=5_000.0,
                on_miss="raise",
            )
        ]
        with pytest.raises(DeadlineMissError):
            run_many(specs, jobs=2)


class TestExecutionMetadata:
    """Every result self-describes how its campaign actually executed."""

    def _one_spec(self):
        taskset = get_workload("cnc").prioritized()
        return RunSpec(taskset=taskset, scheduler="fps", duration=9_600.0)

    def test_metadata_stamped_on_every_result(self):
        results = run_many(_grid_specs()[:3], jobs=1)
        for result in results:
            metadata = result.metadata
            assert metadata["requested_jobs"] == 1
            assert metadata["resolved_jobs"] == 1
            assert metadata["workers"] == 1
            assert metadata["executor"] == "serial"
            assert metadata["cell_wall_s"] > 0.0

    def test_resolved_jobs_clamped_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        results = run_many(_grid_specs()[:2], jobs=cpus + 7)
        for result in results:
            assert result.metadata["requested_jobs"] == cpus + 7
            assert result.metadata["resolved_jobs"] == cpus

    def test_unpicklable_fallback_is_recorded(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs >1 CPU for the pool path to be attempted")
        taskset = get_workload("cnc").prioritized()
        local = FpsScheduler
        spec1 = RunSpec(
            taskset=taskset, scheduler=lambda: local(), duration=9_600.0
        )
        spec2 = RunSpec(
            taskset=taskset, scheduler=lambda: local(), duration=9_600.0
        )
        results = run_many([spec1, spec2], jobs=2)
        for result in results:
            assert result.metadata["executor"] == "serial-fallback-unpicklable"

    def test_pool_that_cannot_be_created_falls_back_to_serial(self, monkeypatch):
        from repro.experiments import runner
        from repro.obs.registry import Registry, installed

        def no_processes(*args, **kwargs):
            raise OSError("process spawning is unavailable")

        specs = _grid_specs()[:4]
        serial = run_many(specs, jobs=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(runner, "_idle_pool", None)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_processes)
        registry = Registry()
        with installed(registry):
            results = run_many(specs, jobs=2)
        assert [_fingerprint(r) for r in results] == [_fingerprint(r) for r in serial]
        for result in results:
            assert result.metadata["executor"] == "serial-fallback-broken-pool"
            assert result.metadata["workers"] == 1
        assert registry.counter_value("runner.executor.serial-fallback-broken-pool") == 1

    def test_obs_gauges_campaign_execution(self):
        from repro.obs.registry import installed, Registry

        specs = _grid_specs()[:4]
        registry = Registry()
        with installed(registry):
            run_many(specs, jobs=1)
        assert registry.counter_value("runner.campaigns") == 1
        assert registry.counter_value("runner.cells") == len(specs)
        assert registry.counter_value("runner.executor.serial") == 1
        assert registry.gauge_value("runner.resolved_jobs") == 1.0
        assert registry.gauge_value("runner.workers") == 1.0
        assert registry.gauge_value("runner.campaign_wall_s") > 0.0
        # Serial execution spends ~all campaign wall time inside cells.
        assert 0.0 < registry.gauge_value("runner.worker_utilization") <= 1.01
        snap = registry.snapshot()
        assert snap["histograms"]["runner.cell_wall_s"]["count"] == len(specs)

    def test_no_registry_installed_means_no_obs_traffic(self):
        # Metadata still lands; the obs side becomes a no-op.
        (result,) = run_many([self._one_spec()], jobs=1)
        assert result.metadata["executor"] == "serial"


class TestJobsConvention:
    """The shared ``jobs`` convention: ``None``/``0`` mean one per CPU."""

    def test_none_resolves_to_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_zero_resolves_to_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passes_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_is_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(-1)

    def test_non_integer_is_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(2.5)
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs("4")
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(True)  # bools are not worker counts

    def test_run_many_rejects_bad_jobs(self):
        taskset = get_workload("cnc").prioritized()
        spec = RunSpec(taskset=taskset, scheduler="fps", duration=9_600.0)
        with pytest.raises(ConfigurationError):
            run_many([spec], jobs=-2)
