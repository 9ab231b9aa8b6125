"""Capture the kernel-throughput baseline for ``bench_kernel.py``.

Run once per engine generation::

    PYTHONPATH=src python benchmarks/baseline_capture.py --label <gen>

The stored JSON (``benchmarks/out/kernel_baseline.json``) pins how fast
the engine was *before* a change, so ``bench_kernel.py`` can report the
speedup of the current kernel against it.  The workload matrix must stay
in sync with ``bench_kernel.py`` (both import :data:`CAMPAIGN_CELLS`).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import List, Tuple

#: The 32-cell campaign used for before/after kernel comparisons:
#: 4 policies x 2 workloads x 4 seeds at a 250 ms horizon.
CAMPAIGN_POLICIES: Tuple[str, ...] = ("fps", "lpfps", "static-fps", "ccedf")
CAMPAIGN_WORKLOADS: Tuple[str, ...] = ("ins", "cnc")
CAMPAIGN_SEEDS: Tuple[int, ...] = (1, 2, 3, 4)
CAMPAIGN_DURATION = 250_000.0
CAMPAIGN_BCET_RATIO = 0.5

#: Single-cell kernel micro-measurement: the CNC servo loop is the
#: highest event rate in the workload registry.
SINGLE_WORKLOAD = "cnc"
SINGLE_DURATION = 2_000_000.0

OUT_PATH = pathlib.Path(__file__).parent / "out" / "kernel_baseline.json"


def calibrate(reps: int = 5) -> float:
    """Interpreter ops-per-second probe for clock drift correction.

    The container's CPU clock oscillates by tens of percent on a
    minutes timescale, so raw wall-time comparisons against a stored
    baseline swing with it.  Both the capture and ``bench_kernel.py``
    run this identical pure-Python loop (bytecode + float + dict work,
    like the kernel hot path) in the same window as their measurements;
    the ratio of the two rates rescales the stored wall times to the
    current clock.  Median of *reps* runs rejects scheduler noise.
    """
    n = 200_000
    rates = []
    for _ in range(reps):
        acc = 0.0
        d = {}
        t0 = time.perf_counter()
        for i in range(n):
            acc += i * 1e-6
            d[i & 63] = acc
        rates.append(n / (time.perf_counter() - t0))
    rates.sort()
    return rates[len(rates) // 2]


def campaign_cells() -> List[Tuple[str, str, int]]:
    """The 32 (policy, workload, seed) cells, in fixed order."""
    return [
        (policy, workload, seed)
        for policy in CAMPAIGN_POLICIES
        for workload in CAMPAIGN_WORKLOADS
        for seed in CAMPAIGN_SEEDS
    ]


def _simulate_cell(policy: str, workload: str, seed: int, record_trace: bool):
    from repro.schedulers.registry import make_scheduler
    from repro.sim.engine import simulate
    from repro.tasks.generation import GaussianModel
    from repro.workloads.registry import get_workload

    taskset = (
        get_workload(workload).prioritized().with_bcet_ratio(CAMPAIGN_BCET_RATIO)
    )
    return simulate(
        taskset,
        make_scheduler(policy),
        execution_model=GaussianModel(),
        duration=CAMPAIGN_DURATION,
        seed=seed,
        on_miss="record",
        record_trace=record_trace,
    )


def time_single_cell(record_trace: bool) -> dict:
    """Wall time and throughput of one long CNC/LPFPS run."""
    from repro.schedulers.registry import make_scheduler
    from repro.sim.engine import simulate
    from repro.tasks.generation import GaussianModel
    from repro.workloads.registry import get_workload

    taskset = (
        get_workload(SINGLE_WORKLOAD).prioritized().with_bcet_ratio(CAMPAIGN_BCET_RATIO)
    )
    t0 = time.perf_counter()
    result = simulate(
        taskset,
        make_scheduler("lpfps"),
        execution_model=GaussianModel(),
        duration=SINGLE_DURATION,
        seed=1,
        on_miss="record",
        record_trace=record_trace,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "simulated_us": SINGLE_DURATION,
        "simulated_us_per_wall_s": SINGLE_DURATION / wall,
        "jobs_completed": result.jobs_completed,
    }


def time_campaign_serial(record_trace: bool = False) -> dict:
    """Wall time of the 32-cell campaign run back-to-back in-process."""
    cells = campaign_cells()
    t0 = time.perf_counter()
    total_jobs = 0
    for policy, workload, seed in cells:
        total_jobs += _simulate_cell(policy, workload, seed, record_trace).jobs_completed
    wall = time.perf_counter() - t0
    simulated = CAMPAIGN_DURATION * len(cells)
    return {
        "wall_s": wall,
        "cells": len(cells),
        "simulated_us": simulated,
        "simulated_us_per_wall_s": simulated / wall,
        "jobs_completed": total_jobs,
        "record_trace": record_trace,
    }


def _git_commit() -> str:
    """Current HEAD commit, or ``"unrecorded"`` outside a git checkout."""
    import subprocess

    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=pathlib.Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unrecorded"
        )
    except Exception:
        return "unrecorded"


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="unlabelled", help="engine generation tag")
    args = parser.parse_args()
    baseline = {
        "label": args.label,
        "commit": _git_commit(),
        "calibration_ops_per_s": calibrate(),
        "single_cell_untraced": time_single_cell(record_trace=False),
        "single_cell_traced": time_single_cell(record_trace=True),
        "campaign_serial_untraced": time_campaign_serial(record_trace=False),
        "campaign_serial_traced": time_campaign_serial(record_trace=True),
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(baseline, indent=1) + "\n")
    print(json.dumps(baseline, indent=1))
    print(f"[saved to {OUT_PATH}]")


if __name__ == "__main__":
    main()
