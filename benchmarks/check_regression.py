"""CI perf-regression gate over the committed bench-metrics/v1 baselines.

Compares freshly measured kernel and service numbers against the
baselines committed in ``benchmarks/out/bench_kernel.json`` and
``benchmarks/out/bench_service.json``::

    PYTHONPATH=src python benchmarks/check_regression.py

Raw wall-clock comparison against a months-old JSON file would gate on
the speed of the runner, not the code.  Every measurement is therefore
*calibration-normalized*: the same pure-Python ops/s probe that
:mod:`benchmarks.baseline_capture` ran at capture time runs again now,
and the stored throughputs are rescaled by the ratio of the two clock
rates before comparing.  The committed chain is::

    ops_at_bench = kernel_baseline.calibration_ops_per_s
                   x bench_kernel.clock_scale_vs_capture

so ``ops_now / ops_at_bench`` converts baseline-era numbers into
today's-clock numbers.  (The service latency check borrows the same
reference — an approximation, since ``bench_service.json`` carries no
probe of its own, which is one reason its tolerance is wider.)

Exit status 0 when everything is within tolerance, 1 on any regression
beyond it — throughputs more than ``--tolerance`` (default 20%) slower
than expected, or the warm-hit HTTP p50 more than
``--latency-tolerance`` (default 50%; network + scheduler jitter)
slower — and 2 when a committed baseline is unusable
(:class:`GateInputError`: missing metric or key; the message names the
regeneration command).  The decision logic is pure (:func:`evaluate`),
so the tests can prove the gate trips on a synthetic slowdown without
simulating anything.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

OUT_DIR = pathlib.Path(__file__).parent / "out"
KERNEL_BENCH_PATH = OUT_DIR / "bench_kernel.json"
SERVICE_BENCH_PATH = OUT_DIR / "bench_service.json"
KERNEL_BASELINE_PATH = OUT_DIR / "kernel_baseline.json"

#: Default regression tolerances, as fractions of the expected value.
THROUGHPUT_TOLERANCE = 0.20
LATENCY_TOLERANCE = 0.50


class GateInputError(Exception):
    """A committed baseline payload is missing something the gate needs.

    Raised instead of a bare ``KeyError`` so a stale or hand-edited
    baseline fails with the regeneration command, not a traceback.
    ``main`` maps it to exit status 2 — distinct from 1 (a real
    regression), so CI can tell "fix the baseline" from "fix the code".
    """


def metric_value(payload: Mapping[str, Any], test: str, name: str) -> float:
    """Pull one metric value out of a bench-metrics/v1 payload."""
    benchmark = payload.get("benchmark", "<unknown>")
    tests = payload.get("tests")
    if not isinstance(tests, Mapping) or test not in tests:
        raise GateInputError(
            f"baseline payload for {benchmark!r} has no test {test!r}; "
            f"regenerate it with: PYTHONPATH=src python -m pytest "
            f"benchmarks/{benchmark}.py -q"
        )
    for metric in tests[test].get("metrics", ()):
        if metric["name"] == name:
            return float(metric["value"])
    raise GateInputError(
        f"metric {name!r} not found in test {test!r} of the committed "
        f"{benchmark!r} baseline; regenerate it with: PYTHONPATH=src "
        f"python -m pytest benchmarks/{benchmark}.py -q"
    )


def baseline_value(baseline: Mapping[str, Any], key: str) -> float:
    """Pull one key out of ``kernel_baseline.json``, with a clear failure."""
    try:
        return float(baseline[key])
    except (KeyError, TypeError, ValueError):
        raise GateInputError(
            f"kernel_baseline.json is missing key {key!r}; regenerate it "
            f"with: PYTHONPATH=src python benchmarks/baseline_capture.py "
            f"--label <generation>"
        ) from None


@dataclass(frozen=True)
class Check:
    """One gate decision: a fresh number against its rescaled baseline."""

    name: str
    baseline: float
    expected: float  #: baseline rescaled to the current clock
    fresh: float
    tolerance: float
    #: "higher-is-better" (throughput) or "lower-is-better" (latency).
    direction: str

    @property
    def regression(self) -> float:
        """Fractional shortfall vs expected (positive = worse)."""
        if self.expected <= 0.0:
            return 0.0
        if self.direction == "higher-is-better":
            return 1.0 - self.fresh / self.expected
        return self.fresh / self.expected - 1.0

    @property
    def ok(self) -> bool:
        return self.regression <= self.tolerance

    def render(self) -> str:
        verdict = "ok  " if self.ok else "FAIL"
        return (
            f"{verdict} {self.name:<38} baseline={self.baseline:>12.1f} "
            f"expected={self.expected:>12.1f} fresh={self.fresh:>12.1f} "
            f"regression={self.regression:>+7.1%} (tol {self.tolerance:.0%})"
        )


def evaluate(
    kernel_bench: Mapping[str, Any],
    kernel_baseline: Mapping[str, Any],
    fresh: Mapping[str, float],
    service_bench: Optional[Mapping[str, Any]] = None,
    tolerance: float = THROUGHPUT_TOLERANCE,
    latency_tolerance: float = LATENCY_TOLERANCE,
) -> List[Check]:
    """Pure gate logic: rescale baselines to the current clock and compare.

    *fresh* must carry ``ops_per_s``, ``campaign_per_wall_s``, and
    ``single_cell_per_wall_s``; ``hit_p50_ms`` is checked only when both
    it and *service_bench* are present.
    """
    ops_at_bench = baseline_value(kernel_baseline, "calibration_ops_per_s") * (
        metric_value(kernel_bench, "test_kernel_throughput", "clock_scale_vs_capture")
    )
    clock_ratio = float(fresh["ops_per_s"]) / ops_at_bench
    checks: List[Check] = []
    for name, metric, key in (
        (
            "kernel.campaign_throughput",
            "campaign_untraced_serial_per_wall_s",
            "campaign_per_wall_s",
        ),
        (
            "kernel.single_cell_throughput",
            "single_cell_untraced_per_wall_s",
            "single_cell_per_wall_s",
        ),
    ):
        baseline = metric_value(kernel_bench, "test_kernel_throughput", metric)
        checks.append(
            Check(
                name=name,
                baseline=baseline,
                expected=baseline * clock_ratio,
                fresh=float(fresh[key]),
                tolerance=tolerance,
                direction="higher-is-better",
            )
        )
    if service_bench is not None and "hit_p50_ms" in fresh:
        baseline = metric_value(
            service_bench, "test_hit_miss_latency_over_http", "hit_latency_p50_ms"
        )
        checks.append(
            Check(
                name="service.warm_hit_p50_ms",
                baseline=baseline,
                expected=baseline / clock_ratio,
                fresh=float(fresh["hit_p50_ms"]),
                tolerance=latency_tolerance,
                direction="lower-is-better",
            )
        )
    return checks


def capture_fresh(probe_service: bool = True) -> Dict[str, float]:
    """Measure the current tree: clock probe, kernel runs, service probe."""
    from baseline_capture import calibrate, time_campaign_serial, time_single_cell

    fresh: Dict[str, float] = {"ops_per_s": calibrate()}
    fresh["single_cell_per_wall_s"] = time_single_cell(record_trace=False)[
        "simulated_us_per_wall_s"
    ]
    fresh["campaign_per_wall_s"] = time_campaign_serial(record_trace=False)[
        "simulated_us_per_wall_s"
    ]
    if probe_service:
        fresh["hit_p50_ms"] = probe_warm_hit_p50_ms()
    return fresh


def probe_warm_hit_p50_ms() -> float:
    """Warm-hit p50 over real HTTP, mirroring the bench_service probe."""
    from repro.service.client import ServiceClient, run_closed_loop
    from repro.service.server import ScheduleService, running_server

    requests = [
        {
            "kind": "energy",
            "app": "example",
            "scheduler": scheduler,
            "seed": seed,
            "duration": 10_000.0,
            "bcet_ratio": 0.5,
        }
        for scheduler in ("fps", "lpfps", "edf")
        for seed in (1, 2)
    ]
    service = ScheduleService(jobs=1)
    try:
        with running_server(service) as server:
            client = ServiceClient(server.url, timeout_s=120.0)
            run_closed_loop(client.query, requests, concurrency=1)  # fill
            warm = run_closed_loop(client.query, requests * 8, concurrency=1)
    finally:
        service.close()
    if warm.ok != warm.requests:
        raise RuntimeError(
            f"service probe failed: {warm.ok}/{warm.requests} requests ok"
        )
    return warm.latency_percentiles()["p50"] * 1e3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=THROUGHPUT_TOLERANCE,
        help="allowed fractional throughput regression (default 0.20)",
    )
    parser.add_argument(
        "--latency-tolerance", type=float, default=LATENCY_TOLERANCE,
        help="allowed fractional warm-hit latency regression (default 0.50)",
    )
    parser.add_argument(
        "--skip-service", action="store_true",
        help="skip the HTTP warm-hit probe (kernel checks only)",
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="also write the verdicts to this JSON file",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    kernel_bench = json.loads(KERNEL_BENCH_PATH.read_text())
    kernel_baseline = json.loads(KERNEL_BASELINE_PATH.read_text())
    service_bench = (
        json.loads(SERVICE_BENCH_PATH.read_text())
        if not args.skip_service and SERVICE_BENCH_PATH.exists()
        else None
    )
    fresh = capture_fresh(probe_service=service_bench is not None)
    try:
        checks = evaluate(
            kernel_bench,
            kernel_baseline,
            fresh,
            service_bench=service_bench,
            tolerance=args.tolerance,
            latency_tolerance=args.latency_tolerance,
        )
    except GateInputError as exc:
        print(f"gate input error: {exc}", file=sys.stderr)
        return 2

    # Provenance: exactly which committed numbers this verdict rests on,
    # and how the clock chain rescaled them.
    ops_at_capture = float(kernel_baseline.get("calibration_ops_per_s", 0.0))
    bench_scale = metric_value(
        kernel_bench, "test_kernel_throughput", "clock_scale_vs_capture"
    )
    ops_at_bench = ops_at_capture * bench_scale
    print(
        "baseline: kernel_baseline.json "
        f"label={kernel_baseline.get('label', '<unlabelled>')!r} "
        f"commit={kernel_baseline.get('commit', 'unrecorded')}"
    )
    print(
        f"clock chain: {ops_at_capture:.0f} ops/s at capture "
        f"x {bench_scale:.4f} bench scale = {ops_at_bench:.0f} ops/s at bench; "
        f"probe now {fresh['ops_per_s']:.0f} ops/s "
        f"(ratio {fresh['ops_per_s'] / ops_at_bench:.3f})"
    )
    for check in checks:
        print(check.render())
    if args.json is not None:
        args.json.write_text(
            json.dumps(
                [
                    {
                        "name": c.name,
                        "baseline": c.baseline,
                        "expected": c.expected,
                        "fresh": c.fresh,
                        "regression": c.regression,
                        "tolerance": c.tolerance,
                        "ok": c.ok,
                    }
                    for c in checks
                ],
                indent=1,
            )
            + "\n"
        )
    failures = [check for check in checks if not check.ok]
    if failures:
        print(f"{len(failures)} perf regression(s) beyond tolerance", file=sys.stderr)
        return 1
    print("all perf checks within tolerance")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    sys.exit(main())
