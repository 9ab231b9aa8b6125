"""The ``lpfps profile`` engine: exact per-phase time/energy breakdown.

One profiled run simulates a (scheduler, workload) cell with the kernel's
observability enabled at ``sample=1`` — every event-loop iteration is
timed, so the phase table is exact rather than a sampled estimate, and
the phase self-times tile the run's wall time (the report prints the
coverage so a hole would be visible).  Alongside the *wall-clock* view
the report shows where the *simulated energy* went, from the run's
:class:`~repro.sim.metrics.EnergyBreakdown` — the two tables together
answer "where did the time go?" for both the simulator and the system
being simulated.

Reports render as an aligned text table for humans and serialise to the
repo-wide bench-metrics/v1 schema for machines (the JSON lands in
``benchmarks/out/profile_*.json``, next to the committed baselines).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .registry import Registry
from .schema import bench_metrics_payload, validate_bench_metrics

#: Kernel span names in display order, with human-readable labels.
PHASE_LABELS = (
    ("kernel.boundary_scan", "boundary scan"),
    ("kernel.advance", "time advance"),
    ("kernel.speed_ramp", "speed ramp"),
    ("kernel.release_scan", "release scan"),
    ("kernel.dispatch", "scheduler dispatch"),
    ("kernel.sleep", "sleep/power-down"),
    ("kernel.boundary_handle", "boundary handle (other)"),
)


@dataclass(frozen=True)
class ProfileReport:
    """One profiled run: phase timings, counters, and energy buckets."""

    scheduler: str
    workload: str
    duration_us: float
    seed: int
    bcet_ratio: float
    wall_s: float
    #: Span snapshot rows: ``{count, total_s, self_s, max_s}`` per name.
    spans: Dict[str, Dict[str, float]]
    counters: Dict[str, int]
    #: Simulated energy per processor state (normalised power × µs).
    energy: Dict[str, float]
    average_power: float

    @property
    def phase_self_total_s(self) -> float:
        """Sum of phase self-times, excluding the enclosing run span."""
        return sum(
            stat["self_s"]
            for name, stat in self.spans.items()
            if name != "kernel.run"
        )

    @property
    def coverage(self) -> float:
        """Fraction of the run wall time attributed to named phases.

        The ``kernel.run`` self-time (setup, finalisation, loop glue) is
        part of the attribution, so at ``sample=1`` this is ~1.0 by
        construction; a materially lower value means a phase span has a
        hole in it.
        """
        if self.wall_s <= 0.0:
            return 0.0
        run = self.spans.get("kernel.run")
        other = run["self_s"] if run is not None else 0.0
        return (self.phase_self_total_s + other) / self.wall_s

    def render(self) -> str:
        """The human-facing breakdown tables."""
        lines = [
            f"profile: scheduler={self.scheduler} workload={self.workload} "
            f"duration={self.duration_us:g}us seed={self.seed} "
            f"bcet_ratio={self.bcet_ratio:g}",
            "",
            f"{'phase':<28} {'calls':>8} {'self ms':>10} {'total ms':>10} "
            f"{'share':>7}",
        ]
        wall = self.wall_s if self.wall_s > 0.0 else 1.0
        for name, label in PHASE_LABELS:
            stat = self.spans.get(name)
            if stat is None:
                continue
            lines.append(
                f"{label:<28} {int(stat['count']):>8} "
                f"{stat['self_s'] * 1e3:>10.3f} {stat['total_s'] * 1e3:>10.3f} "
                f"{stat['self_s'] / wall:>6.1%}"
            )
        run = self.spans.get("kernel.run")
        if run is not None:
            lines.append(
                f"{'setup/finalise/other':<28} {'':>8} "
                f"{run['self_s'] * 1e3:>10.3f} {'':>10} "
                f"{run['self_s'] / wall:>6.1%}"
            )
        lines.append(
            f"{'TOTAL (wall)':<28} {'':>8} {self.wall_s * 1e3:>10.3f} "
            f"{'':>10} {self.coverage:>6.1%}"
        )
        lines.append("")
        lines.append(f"{'energy bucket':<28} {'power-us':>12} {'share':>7}")
        total_energy = sum(self.energy.values()) or 1.0
        for state, value in self.energy.items():
            lines.append(
                f"{state:<28} {value:>12.2f} {value / total_energy:>6.1%}"
            )
        lines.append(
            f"{'TOTAL':<28} {sum(self.energy.values()):>12.2f} "
            f"(avg power {self.average_power:.4f})"
        )
        interesting = (
            "sched.decisions.dispatch",
            "sched.decisions.speed",
            "sched.decisions.sleep",
            "sched.decisions.no_change",
            "kernel.iterations",
            "kernel.releases",
        )
        counts = [
            f"{name.rsplit('.', 1)[-1]}={self.counters[name]}"
            for name in interesting
            if name in self.counters
        ]
        if counts:
            lines.append("")
            lines.append("decisions: " + " ".join(counts))
        # Resilience events (supervised campaigns, retrying clients,
        # broker degradation) — shown whenever any counter fired, so a
        # profiled run that survived infrastructure trouble says so.
        resilience = (
            "runner.pool_rebuilds",
            "runner.cell_retries",
            "runner.cell_failures",
            "runner.checkpoint_hits",
            "runner.checkpoint_stored",
            "client.retries",
            "client.transport_failures",
            "client.breaker_trips",
            "client.fast_fails",
            "client.exhausted",
            "client.stream_failovers",
            "broker.window_shrinks",
        )
        events = [
            f"{name.split('.', 1)[-1]}={self.counters[name]}"
            for name in resilience
            if name in self.counters
        ]
        if events:
            lines.append("")
            lines.append("resilience: " + " ".join(events))
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, Any]:
        """bench-metrics/v1 payload for ``benchmarks/out/profile_*.json``."""
        metrics: List[Dict[str, Any]] = []
        for name, stat in sorted(self.spans.items()):
            metrics.append(
                {"name": f"{name}_count", "value": int(stat["count"]), "units": ""}
            )
            metrics.append(
                {"name": f"{name}_total_s", "value": stat["total_s"], "units": "s"}
            )
            metrics.append(
                {"name": f"{name}_self_s", "value": stat["self_s"], "units": "s"}
            )
        for name, value in sorted(self.counters.items()):
            metrics.append({"name": name, "value": value, "units": ""})
        for state, value in self.energy.items():
            metrics.append(
                {"name": f"energy.{state}", "value": value, "units": "power-us"}
            )
        metrics.append(
            {"name": "average_power", "value": self.average_power, "units": ""}
        )
        metrics.append({"name": "coverage", "value": self.coverage, "units": ""})
        metrics.append({"name": "scheduler", "value": self.scheduler, "units": ""})
        metrics.append({"name": "workload", "value": self.workload, "units": ""})
        metrics.append(
            {"name": "duration_us", "value": self.duration_us, "units": "us"}
        )
        metrics.append({"name": "seed", "value": self.seed, "units": ""})
        payload = bench_metrics_payload(
            "profile",
            {
                f"{self.scheduler}@{self.workload}": {
                    "wall_time_s": round(self.wall_s, 6),
                    "metrics": metrics,
                }
            },
        )
        problems = validate_bench_metrics(payload)
        if problems:  # pragma: no cover - guards future schema drift
            raise ValueError(f"profile payload does not validate: {problems}")
        return payload

    def write(self, out_dir: pathlib.Path) -> pathlib.Path:
        """Write the JSON payload; returns the file path."""
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"profile_{self.scheduler}_{self.workload}.json"
        path.write_text(json.dumps(self.to_payload(), indent=1, sort_keys=True))
        return path


def profile_run(
    scheduler: str,
    workload: str,
    duration: Optional[float] = None,
    seed: int = 1,
    bcet_ratio: float = 0.5,
) -> ProfileReport:
    """Profile one (scheduler, workload) cell with exact instrumentation."""
    from time import perf_counter

    # Imported here, not at module top: obs must stay importable without
    # dragging in the whole scheduler/workload surface.
    from ..experiments.runner import measurement_duration
    from ..schedulers.registry import make_scheduler
    from ..sim.engine import simulate
    from ..tasks.generation import GaussianModel
    from ..workloads.registry import canonical_workload_name, get_workload

    workload = canonical_workload_name(workload)
    taskset = get_workload(workload).prioritized().with_bcet_ratio(bcet_ratio)
    horizon = (
        duration
        if duration is not None
        else min(measurement_duration(taskset), 2_000_000.0)
    )
    registry = Registry(sample=1)
    t0 = perf_counter()
    result = simulate(
        taskset,
        make_scheduler(scheduler),
        execution_model=GaussianModel(),
        duration=horizon,
        seed=seed,
        on_miss="record",
        obs=registry,
    )
    wall_s = perf_counter() - t0
    snapshot = registry.snapshot()
    return ProfileReport(
        scheduler=scheduler,
        workload=workload,
        duration_us=horizon,
        seed=seed,
        bcet_ratio=bcet_ratio,
        wall_s=wall_s,
        spans=snapshot["spans"],
        counters=snapshot["counters"],
        energy=result.energy.as_dict(),
        average_power=result.average_power,
    )
