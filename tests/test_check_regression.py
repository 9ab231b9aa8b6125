"""The perf gate's decision logic must trip on regressions — provably.

``benchmarks/check_regression.py`` separates measurement from judgment:
:func:`evaluate` is pure, taking baseline payloads and a dict of fresh
numbers.  These tests feed it synthetic inputs to prove the gate (a)
passes an unchanged tree, (b) fails a 2x slowdown in either direction
(throughput drop, latency blow-up), and (c) normalises away runner-speed
differences via the calibration probe — a 2x-faster machine with
2x-faster numbers is *not* an improvement, and a 2x-faster machine with
unchanged numbers *is* a regression.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))

from check_regression import (  # noqa: E402
    Check,
    GateInputError,
    baseline_value,
    evaluate,
    metric_value,
)

OPS = 1_000_000.0
CAMPAIGN = 20_000_000.0
SINGLE = 12_000_000.0
HIT_P50_MS = 0.8


def kernel_bench(clock_scale=1.0):
    return {
        "benchmark": "bench_kernel",
        "schema": "bench-metrics/v1",
        "tests": {
            "test_kernel_throughput": {
                "wall_time_s": 1.0,
                "metrics": [
                    {
                        "name": "campaign_untraced_serial_per_wall_s",
                        "value": CAMPAIGN,
                        "units": "simulated µs per wall-clock s",
                    },
                    {
                        "name": "single_cell_untraced_per_wall_s",
                        "value": SINGLE,
                        "units": "simulated µs per wall-clock s",
                    },
                    {
                        "name": "clock_scale_vs_capture",
                        "value": clock_scale,
                        "units": "ratio",
                    },
                ],
            },
        },
    }


def service_bench():
    return {
        "benchmark": "bench_service",
        "schema": "bench-metrics/v1",
        "tests": {
            "test_hit_miss_latency_over_http": {
                "wall_time_s": 1.0,
                "metrics": [
                    {
                        "name": "hit_latency_p50_ms",
                        "value": HIT_P50_MS,
                        "units": "ms",
                    }
                ],
            }
        },
    }


KERNEL_BASELINE = {"calibration_ops_per_s": OPS}


def fresh(ops=OPS, campaign=CAMPAIGN, single=SINGLE, hit=HIT_P50_MS):
    return {
        "ops_per_s": ops,
        "campaign_per_wall_s": campaign,
        "single_cell_per_wall_s": single,
        "hit_p50_ms": hit,
    }


def run(fresh_numbers, **kwargs):
    return evaluate(
        kernel_bench(),
        KERNEL_BASELINE,
        fresh_numbers,
        service_bench=service_bench(),
        **kwargs,
    )


class TestMetricValue:
    def test_finds_named_metric(self):
        assert metric_value(
            kernel_bench(), "test_kernel_throughput", "clock_scale_vs_capture"
        ) == 1.0

    def test_missing_metric_is_a_gate_input_error(self):
        # Not a bare KeyError: the message must name the metric AND the
        # command that regenerates the stale baseline.
        with pytest.raises(GateInputError, match="nope") as excinfo:
            metric_value(kernel_bench(), "test_kernel_throughput", "nope")
        assert "bench_kernel" in str(excinfo.value)
        assert "pytest" in str(excinfo.value)

    def test_missing_test_is_a_gate_input_error(self):
        with pytest.raises(GateInputError, match="test_gone"):
            metric_value(kernel_bench(), "test_gone", "anything")


class TestBaselineValue:
    def test_present_key_passes_through(self):
        assert baseline_value(KERNEL_BASELINE, "calibration_ops_per_s") == OPS

    def test_missing_key_names_the_regeneration_command(self):
        with pytest.raises(GateInputError, match="calibration_ops_per_s") as excinfo:
            baseline_value({}, "calibration_ops_per_s")
        assert "baseline_capture.py" in str(excinfo.value)

    def test_evaluate_surfaces_missing_baseline_key(self):
        with pytest.raises(GateInputError, match="baseline_capture.py"):
            evaluate(kernel_bench(), {"label": "stale"}, fresh())


class TestIdentity:
    def test_unchanged_numbers_pass(self):
        checks = run(fresh())
        assert len(checks) == 3
        assert all(check.ok for check in checks)
        assert all(check.regression == pytest.approx(0.0) for check in checks)

    def test_small_jitter_within_tolerance_passes(self):
        checks = run(fresh(campaign=CAMPAIGN * 0.9, hit=HIT_P50_MS * 1.2))
        assert all(check.ok for check in checks)


class TestSyntheticSlowdown:
    def test_2x_throughput_slowdown_fails(self):
        checks = {c.name: c for c in run(fresh(campaign=CAMPAIGN / 2))}
        failed = checks["kernel.campaign_throughput"]
        assert not failed.ok
        assert failed.regression == pytest.approx(0.5)
        # The untouched checks still pass: the gate points at the culprit.
        assert checks["kernel.single_cell_throughput"].ok
        assert checks["service.warm_hit_p50_ms"].ok

    def test_2x_single_cell_slowdown_fails(self):
        checks = {c.name: c for c in run(fresh(single=SINGLE / 2))}
        assert not checks["kernel.single_cell_throughput"].ok

    def test_2x_latency_blowup_fails(self):
        checks = {c.name: c for c in run(fresh(hit=HIT_P50_MS * 2))}
        failed = checks["service.warm_hit_p50_ms"]
        assert not failed.ok
        assert failed.regression == pytest.approx(1.0)

    def test_just_beyond_tolerance_fails(self):
        checks = run(fresh(campaign=CAMPAIGN * 0.75))  # 25% > 20% budget
        assert not all(check.ok for check in checks)

    def test_tolerance_is_configurable(self):
        checks = run(fresh(campaign=CAMPAIGN * 0.75), tolerance=0.30)
        assert all(check.ok for check in checks)


class TestClockNormalization:
    def test_faster_runner_with_scaled_numbers_passes(self):
        # 2x-faster clock probe and 2x the throughput: same code speed.
        checks = run(
            fresh(
                ops=OPS * 2,
                campaign=CAMPAIGN * 2,
                single=SINGLE * 2,
                hit=HIT_P50_MS / 2,
            )
        )
        assert all(check.ok for check in checks)
        assert all(check.regression == pytest.approx(0.0) for check in checks)

    def test_faster_runner_with_unchanged_numbers_fails(self):
        # The machine doubled in speed but the code didn't: regression.
        checks = run(fresh(ops=OPS * 2))
        assert not all(check.ok for check in checks)

    def test_clock_scale_chain_is_applied(self):
        # bench_kernel was itself captured on a half-speed clock: the
        # expected values must rescale through that stored ratio too.
        checks = evaluate(
            kernel_bench(clock_scale=0.5),
            KERNEL_BASELINE,
            fresh(campaign=CAMPAIGN * 2, single=SINGLE * 2),
        )
        assert all(check.ok for check in checks)
        assert all(check.regression == pytest.approx(0.0) for check in checks)


class TestCheckRendering:
    def test_render_marks_failures(self):
        ok = Check(
            name="a", baseline=1.0, expected=1.0, fresh=1.0,
            tolerance=0.2, direction="higher-is-better",
        )
        bad = Check(
            name="b", baseline=1.0, expected=1.0, fresh=0.4,
            tolerance=0.2, direction="higher-is-better",
        )
        assert ok.render().startswith("ok")
        assert bad.render().startswith("FAIL")

    def test_degenerate_expected_never_divides_by_zero(self):
        check = Check(
            name="z", baseline=0.0, expected=0.0, fresh=1.0,
            tolerance=0.2, direction="higher-is-better",
        )
        assert check.regression == 0.0
        assert check.ok
