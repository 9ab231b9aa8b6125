"""Reduced-scale Figure 8 runs asserting the paper's qualitative shape.

Full-scale sweeps live in benchmarks/; these smoke tests use short
horizons, coarse ratio grids, and single seeds to stay fast while still
checking the acceptance criteria of DESIGN.md EXP-F8.
"""

import pytest

from repro.experiments.figure8 import run_figure8
from repro.experiments.runner import RunSpec, measurement_duration, run_many
from repro.power.processor import ProcessorSpec
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload

_FAST = dict(ratios=(0.1, 0.5, 1.0), seeds=(1,), duration=500_000.0)


class TestFigure8Shape:
    @pytest.mark.parametrize("app", ["ins", "cnc", "flight_control"])
    def test_lpfps_always_below_fps(self, app):
        result = run_figure8(app, **_FAST)
        for point in result.points:
            assert point.lpfps_power < point.fps_power

    @pytest.mark.parametrize("app", ["ins", "cnc"])
    def test_no_deadline_misses(self, app):
        result = run_figure8(app, **_FAST)
        for point in result.points:
            assert point.lpfps_misses == 0
            assert point.fps_misses == 0

    def test_gain_grows_as_bcet_shrinks(self):
        result = run_figure8("ins", **_FAST)
        reductions = [p.reduction for p in result.points]
        assert reductions[0] > reductions[-1]

    def test_gain_exists_at_wcet(self):
        """LPFPS beats FPS even with zero execution-time variation."""
        result = run_figure8("ins", **_FAST)
        assert result.reduction_at_wcet > 0.05

    def test_fps_power_tracks_utilization_scaling(self):
        """FPS average power rises with the mean execution demand."""
        result = run_figure8("cnc", **_FAST)
        fps_powers = [p.fps_power for p in result.points]
        assert fps_powers == sorted(fps_powers)

    def test_render(self):
        result = run_figure8("cnc", **_FAST)
        text = result.render()
        assert "Figure 8" in text
        assert "reduction" in text


class _RecordingModel:
    """Delegates every draw to *inner* and records ``(task, demand)``."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = []

    def sample(self, task, rng):
        demand = self.inner.sample(task, rng)
        self.draws.append((task.name, demand))
        return demand


class TestPairedDemands:
    """The paper's comparison is paired: both policies see the same jobs."""

    @pytest.mark.parametrize("app", ["avionics", "ins", "flight_control", "cnc"])
    def test_fps_and_lpfps_cells_draw_the_same_demands(self, app):
        # The cells run_figure8 builds at BCET 0.5 for seed 1.
        base = get_workload(app).prioritized()
        models = {
            name: _RecordingModel(GaussianModel()) for name in ("fps", "lpfps")
        }
        cells = [
            RunSpec(
                taskset=base.with_bcet_ratio(0.5),
                scheduler=name,
                seed=1,
                spec=ProcessorSpec.arm8(),
                execution_model=model,
                duration=measurement_duration(base),
            )
            for name, model in models.items()
        ]
        run_many(cells, jobs=1)
        assert models["fps"].draws
        assert models["fps"].draws == models["lpfps"].draws
