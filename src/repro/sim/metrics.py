"""Simulation metrics: energy breakdown, per-task statistics, results.

Energy is accounted in normalised units (full-speed active power × µs), so
``average_power`` is directly the fraction of full-speed power the processor
drew — the quantity plotted on the y-axes of the paper's Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..tasks.job import Job


@dataclass
class EnergyBreakdown:
    """Energy per processor state, in normalised power × µs."""

    active: float = 0.0     #: executing a job at a steady clock
    ramp: float = 0.0       #: during DVS speed transitions
    idle: float = 0.0       #: busy-waiting on NOPs
    sleep: float = 0.0      #: power-down mode
    wakeup: float = 0.0     #: returning from power-down
    scheduler: float = 0.0  #: executing the scheduler itself (overhead model)

    @property
    def total(self) -> float:
        """Sum over all states."""
        return (
            self.active + self.ramp + self.idle + self.sleep + self.wakeup
            + self.scheduler
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        return {
            "active": self.active,
            "ramp": self.ramp,
            "idle": self.idle,
            "sleep": self.sleep,
            "wakeup": self.wakeup,
            "scheduler": self.scheduler,
        }

    def add(self, state: str, energy: float) -> None:
        """Accumulate *energy* into the named state bucket."""
        setattr(self, state, getattr(self, state) + energy)


@dataclass
class TaskStats:
    """Response-time and completion statistics for one task."""

    name: str
    jobs_released: int = 0
    jobs_completed: int = 0
    deadline_misses: int = 0
    worst_response: float = 0.0
    total_response: float = 0.0
    preemptions: int = 0

    @property
    def average_response(self) -> float:
        """Mean response time over completed jobs (0 when none)."""
        if self.jobs_completed == 0:
            return 0.0
        return self.total_response / self.jobs_completed

    def record_completion(self, job: Job) -> None:
        """Fold one completed job into the statistics."""
        self.jobs_completed += 1
        completion = job.completion_time
        response = 0.0 if completion is None else completion - job.release_time
        if response > self.worst_response:
            self.worst_response = response
        self.total_response += response
        self.preemptions += job.preemptions


@dataclass
class DeadlineMiss:
    """Record of one deadline violation."""

    job_name: str
    task_name: str
    release_time: float
    deadline: float
    completion_time: Optional[float]  #: None when detected while still running
    #: Which containment applied: ``"run-to-completion"`` (the job finished
    #: past its deadline) or ``"abort"`` (the kernel killed it at the
    #: deadline).
    containment: str = "run-to-completion"


@dataclass
class SimulationResult:
    """Everything a simulation run produced.

    The headline quantity is :attr:`average_power` — total normalised energy
    divided by simulated time, i.e. the fraction of full-speed active power
    consumed on average (Figure 8's y-axis).
    """

    scheduler: str
    taskset: str
    duration: float
    energy: EnergyBreakdown
    task_stats: Dict[str, TaskStats]
    deadline_misses: List[DeadlineMiss] = field(default_factory=list)
    context_switches: int = 0
    preemptions: int = 0
    speed_changes: int = 0
    sleep_entries: int = 0
    jobs_completed: int = 0
    speed_residency: Dict[float, float] = field(default_factory=dict)
    trace: Optional["object"] = None  # TraceRecorder when tracing was enabled
    #: Injected faults, in injection order (empty without a fault layer).
    fault_events: List["object"] = field(default_factory=list)
    #: Guard interventions, in activation order (empty without guards).
    guard_activations: List["object"] = field(default_factory=list)
    #: Execution provenance, not simulation output: the campaign executor
    #: annotates cell wall time and resolved worker counts here so dumped
    #: campaign JSON is self-describing.  Deliberately excluded from
    #: golden digests — it varies run to run.
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def average_power(self) -> float:
        """Mean normalised power over the run."""
        if self.duration <= 0:
            return 0.0
        return self.energy.total / self.duration

    @property
    def missed(self) -> bool:
        """True when any job violated its deadline."""
        return bool(self.deadline_misses)

    @property
    def failed(self) -> bool:
        """Always ``False`` — the counterpart of ``CellFailure.failed``.

        Contained campaigns (``run_many(..., failures="contain")``) mix
        results and failures in one list; ``r.failed`` filters them
        without importing the executor's types.
        """
        return False

    def power_reduction_vs(self, baseline: "SimulationResult") -> float:
        """Fractional power saving relative to *baseline* (paper's metric).

        ``0.62`` means 62 % less average power than the baseline.
        """
        base = baseline.average_power
        if base <= 0:
            return 0.0
        return 1.0 - self.average_power / base

    def utilization_of_time(self) -> Dict[str, float]:
        """Fraction of simulated time attributable to each energy bucket.

        Derived from the residency the engine tracked alongside energy.
        """
        if self.duration <= 0:
            return {}
        return {
            speed: time / self.duration for speed, time in self.speed_residency.items()
        }

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"{self.scheduler} on {self.taskset}: "
            f"avg power {self.average_power:.4f} of full speed over "
            f"{self.duration:.0f} us",
            f"  energy: active={self.energy.active:.1f} ramp={self.energy.ramp:.1f} "
            f"idle={self.energy.idle:.1f} sleep={self.energy.sleep:.1f} "
            f"wakeup={self.energy.wakeup:.1f}",
            f"  jobs={self.jobs_completed} ctx={self.context_switches} "
            f"preempt={self.preemptions} speed-changes={self.speed_changes} "
            f"sleeps={self.sleep_entries} misses={len(self.deadline_misses)}",
        ]
        if self.fault_events or self.guard_activations:
            lines.append(
                f"  faults={len(self.fault_events)} "
                f"guard-activations={len(self.guard_activations)}"
            )
        return "\n".join(lines)


def merge_speed_residency(
    residency: Dict[float, float], speed: float, duration: float, precision: int = 2
) -> None:
    """Accumulate *duration* µs spent at *speed* into a residency histogram.

    Speeds are bucketed to *precision* decimals so ramps don't explode the
    histogram.
    """
    if duration <= 0:
        return
    key = round(speed, precision)
    residency[key] = residency.get(key, 0.0) + duration
