"""EXP-K benchmark: kernel throughput before/after the decomposition.

Measures simulated-µs-per-wall-second of the composable kernel on the
shared 32-cell campaign grid (and one long CNC cell) in four
configurations — traced/no-trace × serial/``run_many(jobs=4)`` — and
compares each against the committed pre-refactor monolith numbers in
``out/kernel_baseline.json`` (captured by ``baseline_capture.py`` on the
same container before the refactor landed).

The headline metric is ``campaign_sweep_speedup``: the no-trace recorder
plus the parallel campaign executor against the pre-refactor traced
serial campaign.  The parallel axis contributes only with >1 CPU core;
``cpu_count`` is recorded next to every run so single-core numbers are
interpretable (there the speedup is the kernel + no-trace share alone).
All before/after ratios are clock-normalized through the
:func:`baseline_capture.calibrate` probe, so an oscillating container
clock cannot fake a speedup or hide one.

Bit-identity cross-check: every configuration must complete exactly the
job counts the pre-refactor engine recorded in the baseline.
"""

import json
import os
import time

from baseline_capture import (
    CAMPAIGN_BCET_RATIO,
    CAMPAIGN_DURATION,
    OUT_PATH as BASELINE_PATH,
    calibrate,
    campaign_cells,
    time_campaign_serial,
    time_single_cell,
)


def time_campaign_parallel(jobs: int = 4) -> dict:
    """Wall time of the 32-cell campaign through ``run_many(jobs=N)``."""
    from repro.experiments.runner import RunSpec, run_many
    from repro.tasks.generation import GaussianModel
    from repro.workloads.registry import get_workload

    specs = []
    for policy, workload, seed in campaign_cells():
        taskset = (
            get_workload(workload).prioritized().with_bcet_ratio(CAMPAIGN_BCET_RATIO)
        )
        specs.append(
            RunSpec(
                taskset=taskset,
                scheduler=policy,
                seed=seed,
                execution_model=GaussianModel(),
                duration=CAMPAIGN_DURATION,
                on_miss="record",
                record_trace=False,
            )
        )
    t0 = time.perf_counter()
    results = run_many(specs, jobs=jobs)
    wall = time.perf_counter() - t0
    simulated = CAMPAIGN_DURATION * len(specs)
    return {
        "wall_s": wall,
        "cells": len(specs),
        "jobs": jobs,
        "simulated_us": simulated,
        "simulated_us_per_wall_s": simulated / wall,
        "jobs_completed": sum(r.jobs_completed for r in results),
        "record_trace": False,
    }


def _row(label: str, m: dict) -> str:
    return (
        f"{label:<38} {m['wall_s']:>8.3f} s "
        f"{m['simulated_us_per_wall_s'] / 1e6:>8.2f} M-µs/s"
    )


def test_kernel_throughput(artifact, metrics_out):
    """Before/after throughput matrix for the decomposed kernel."""
    baseline = json.loads(BASELINE_PATH.read_text())
    cores = os.cpu_count() or 1

    # The container's CPU clock drifts by tens of percent between runs;
    # rescale the stored baseline walls to the current clock so the
    # before/after ratios measure the code, not the frequency governor.
    clock_scale = baseline["calibration_ops_per_s"] / calibrate()

    single_untraced = time_single_cell(record_trace=False)
    single_traced = time_single_cell(record_trace=True)
    campaign_traced = time_campaign_serial(record_trace=True)
    campaign_untraced = time_campaign_serial(record_trace=False)
    campaign_parallel = time_campaign_parallel(jobs=4)

    # Bit-identity: the decomposed kernel must replay the monolith's runs
    # job-for-job (the golden-trace suite pins the full traces; this pins
    # the live benchmark configurations against the committed baseline).
    assert (
        single_untraced["jobs_completed"]
        == baseline["single_cell_untraced"]["jobs_completed"]
    )
    assert (
        campaign_untraced["jobs_completed"]
        == baseline["campaign_serial_untraced"]["jobs_completed"]
    )
    assert campaign_parallel["jobs_completed"] == campaign_untraced["jobs_completed"]

    def speedup(now: dict, then: dict) -> float:
        # Identical simulated_us on both sides, so the wall ratio is the
        # throughput ratio; clock_scale converts the baseline wall to
        # what the monolith would take on the current clock.
        return then["wall_s"] * clock_scale / now["wall_s"]

    single_speedup = speedup(single_untraced, baseline["single_cell_untraced"])
    single_traced_speedup = speedup(single_traced, baseline["single_cell_traced"])
    campaign_kernel_speedup = speedup(
        campaign_untraced, baseline["campaign_serial_untraced"]
    )
    # Acceptance configuration: no-trace recorder + parallel executor vs
    # the pre-refactor traced serial campaign.
    campaign_sweep_speedup = speedup(
        campaign_parallel, baseline["campaign_serial_traced"]
    )
    notrace_speedup = campaign_traced["wall_s"] / campaign_untraced["wall_s"]
    parallel_speedup = campaign_untraced["wall_s"] / campaign_parallel["wall_s"]

    lines = [
        "EXP-K: kernel throughput (simulated µs per wall-clock second)",
        f"baseline: {baseline['label']}  |  cpu_count: {cores}"
        f"  |  clock scale vs capture: {1.0 / clock_scale:.2f}x",
        "",
        _row("single cell, traced", single_traced),
        _row("single cell, no-trace", single_untraced),
        _row("32-cell campaign, traced serial", campaign_traced),
        _row("32-cell campaign, no-trace serial", campaign_untraced),
        _row("32-cell campaign, no-trace jobs=4", campaign_parallel),
        "",
        f"single-cell kernel speedup (no-trace):      {single_speedup:.2f}x",
        f"single-cell kernel speedup (traced):        {single_traced_speedup:.2f}x",
        f"campaign kernel speedup (like-for-like):    {campaign_kernel_speedup:.2f}x",
        f"no-trace recorder vs traced (this kernel):  {notrace_speedup:.2f}x",
        f"parallel executor vs serial ({cores} core(s)):   {parallel_speedup:.2f}x",
        f"campaign sweep speedup (no-trace + jobs=4"
        f" vs pre-refactor traced serial):            {campaign_sweep_speedup:.2f}x",
    ]
    artifact("kernel_throughput", "\n".join(lines))

    add = metrics_out
    add("cpu_count", cores, "cores")
    add(
        "single_cell_untraced_per_wall_s",
        round(single_untraced["simulated_us_per_wall_s"], 1),
        "simulated µs per wall-clock s",
    )
    add(
        "campaign_untraced_serial_per_wall_s",
        round(campaign_untraced["simulated_us_per_wall_s"], 1),
        "simulated µs per wall-clock s",
    )
    add(
        "campaign_untraced_parallel_per_wall_s",
        round(campaign_parallel["simulated_us_per_wall_s"], 1),
        "simulated µs per wall-clock s",
    )
    add("clock_scale_vs_capture", round(1.0 / clock_scale, 4), "ratio")
    add("single_cell_kernel_speedup", round(single_speedup, 3), "x")
    add("campaign_kernel_speedup", round(campaign_kernel_speedup, 3), "x")
    add("notrace_recorder_speedup", round(notrace_speedup, 3), "x")
    add("parallel_executor_speedup", round(parallel_speedup, 3), "x")
    add("campaign_sweep_speedup", round(campaign_sweep_speedup, 3), "x")

    # Clock-normalized gates: the decomposed kernel must clearly beat the
    # monolith like-for-like, and the sweep configuration (no-trace +
    # parallel executor) must beat the pre-refactor traced serial
    # campaign by ~2x (it measures 2.2x on one core; more with the
    # parallel axis on multicore).  Gates sit below the measured values
    # to absorb residual calibration noise.
    assert campaign_kernel_speedup > 1.4
    assert campaign_sweep_speedup > 1.7
