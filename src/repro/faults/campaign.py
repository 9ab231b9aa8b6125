"""Seeded fault-injection campaigns over the scheduler registry.

A campaign fixes one workload, one injector, and one intensity, then runs
every requested policy with guards off and on, over a set of seeds.  Each
(policy, guards) cell is compared against its own *fault-free* baseline —
same policy, same guards, same execution-time seeds, no injectors — so the
reported energy delta isolates what the faults (and the guards' reactions
to them) cost, not what the policy costs.

Everything is deterministic: the run order is fixed (policies in the order
given, unguarded before guarded, seeds in the order given), the fault
layer's RNG is seeded per run from the campaign seed list, and
:meth:`CampaignResult.render` uses fixed-width formatting — repeating a
campaign with the same arguments is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..experiments.runner import RunSpec, run_many
from ..tasks.generation import GaussianModel
from .guards import DEFAULT_POLICIES, GuardConfig
from .injectors import make_injector
from .layer import FaultLayer


@dataclass(frozen=True)
class PolicyOutcome:
    """Aggregated result of one (policy, guards) cell of a campaign."""

    policy: str
    guarded: bool
    seeds: int                 #: number of seeded runs aggregated
    jobs_released: int         #: total jobs released across runs
    misses: int                #: total deadline misses across runs
    aborts: int                #: misses contained by aborting the job
    guard_activations: int     #: total guard interventions across runs
    fault_count: int           #: total injected fault events across runs
    power: float               #: mean normalised average power, faulted
    baseline_power: float      #: mean normalised average power, fault-free

    @property
    def miss_rate(self) -> float:
        """Fraction of released jobs that missed their deadline."""
        if self.jobs_released == 0:
            return 0.0
        return self.misses / self.jobs_released

    @property
    def energy_delta_pct(self) -> float:
        """Energy change vs the fault-free baseline, in percent."""
        if self.baseline_power <= 0:
            return 0.0
        return 100.0 * (self.power / self.baseline_power - 1.0)


@dataclass
class CampaignResult:
    """Everything one fault-injection campaign produced."""

    workload: str
    injector: str
    intensity: float
    seeds: Sequence[int]
    miss_policy: str
    outcomes: List[PolicyOutcome] = field(default_factory=list)

    def outcome(self, policy: str, guarded: bool) -> PolicyOutcome:
        """The cell for *policy* with guards on/off (raises when absent)."""
        for out in self.outcomes:
            if out.policy == policy and out.guarded == guarded:
                return out
        raise KeyError(f"no outcome for policy={policy!r} guarded={guarded}")

    def render(self) -> str:
        """Fixed-width, deterministic report table."""
        seed_list = ",".join(str(s) for s in self.seeds)
        lines = [
            f"Fault campaign: workload={self.workload} injector={self.injector} "
            f"intensity={self.intensity:.2f} seeds={seed_list} "
            f"miss-policy={self.miss_policy}",
            f"{'policy':<12} {'guards':<6} {'jobs':>6} {'misses':>6} "
            f"{'miss%':>7} {'aborts':>6} {'guards#':>7} {'faults':>6} "
            f"{'power':>8} {'dE%':>8}",
        ]
        for out in self.outcomes:
            lines.append(
                f"{out.policy:<12} {'on' if out.guarded else 'off':<6} "
                f"{out.jobs_released:>6d} {out.misses:>6d} "
                f"{100.0 * out.miss_rate:>7.3f} {out.aborts:>6d} "
                f"{out.guard_activations:>7d} {out.fault_count:>6d} "
                f"{out.power:>8.4f} {out.energy_delta_pct:>+8.3f}"
            )
        return "\n".join(lines)


def _aggregate(results) -> tuple:
    jobs = sum(
        stats.jobs_released
        for result in results
        for stats in result.task_stats.values()
    )
    misses = sum(len(result.deadline_misses) for result in results)
    aborts = sum(
        1
        for result in results
        for miss in result.deadline_misses
        if miss.containment == "abort"
    )
    guard_acts = sum(len(result.guard_activations) for result in results)
    faults = sum(len(result.fault_events) for result in results)
    power = sum(result.average_power for result in results) / max(1, len(results))
    return jobs, misses, aborts, guard_acts, faults, power


def run_campaign(
    taskset,
    injector: str,
    intensity: float,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seeds: Sequence[int] = (1, 2, 3),
    miss_policy: str = "run-to-completion",
    spec=None,
    execution_model=None,
    duration: Optional[float] = None,
    scheduler_overhead: float = 0.0,
    jobs: Optional[int] = 1,
    checkpoint: Union[None, str, Path] = None,
) -> CampaignResult:
    """Run one seeded fault-injection campaign.

    Parameters
    ----------
    taskset:
        A prioritised :class:`~repro.tasks.task.TaskSet` (callers usually
        pass ``workload.prioritized().with_bcet_ratio(0.5)``).
    injector:
        Registry name from :func:`~repro.faults.injectors.available_injectors`.
    intensity:
        The injector's dose knob in ``[0, 1]``; 0 runs a (useful) control
        campaign whose cells all match their baselines exactly.
    policies / seeds:
        Scheduler registry names and execution-time seeds to sweep; the
        fault layer of run *k* is seeded with ``seeds[k]`` too, so the
        whole campaign is a pure function of its arguments.
    miss_policy:
        Containment for the guarded cells (``"run-to-completion"`` or
        ``"abort"``); unguarded cells always run misses to completion.
    jobs:
        Worker processes for the run grid (> 1 fans out over
        :func:`~repro.experiments.runner.run_many`); results are
        identical to the serial default.
    checkpoint:
        Journal directory for crash/resume: completed cells are
        persisted as they finish and restored instead of recomputed on
        the next run with the same arguments.
    """
    if intensity < 0:
        raise ConfigurationError(f"intensity must be >= 0, got {intensity}")
    if not seeds:
        raise ConfigurationError("campaign needs at least one seed")
    model = execution_model if execution_model is not None else GaussianModel()

    result = CampaignResult(
        workload=taskset.name,
        injector=injector,
        intensity=intensity,
        seeds=tuple(seeds),
        miss_policy=miss_policy,
    )

    def _guards_for(guarded: bool) -> GuardConfig:
        return (
            GuardConfig.all(miss_policy=miss_policy)
            if guarded
            else GuardConfig.none()
        )

    specs = [
        RunSpec(
            taskset=taskset,
            scheduler=policy,
            seed=seed,
            spec=spec,
            execution_model=model,
            duration=duration,
            on_miss="record",
            scheduler_overhead=scheduler_overhead,
            faults=FaultLayer(
                injectors=[make_injector(injector, intensity)]
                if with_faults
                else [],
                guards=_guards_for(guarded),
                seed=seed,
            ),
        )
        for policy in policies
        for guarded in (False, True)
        for with_faults in (False, True)
        for seed in seeds
    ]
    run_iter = iter(run_many(specs, jobs=jobs, checkpoint=checkpoint))
    for policy in policies:
        for guarded in (False, True):
            baseline_runs = [next(run_iter) for _ in seeds]
            faulted_runs = [next(run_iter) for _ in seeds]
            jobs_released, misses, aborts, guard_acts, faults, power = _aggregate(
                faulted_runs
            )
            _, _, _, _, _, base_power = _aggregate(baseline_runs)
            result.outcomes.append(
                PolicyOutcome(
                    policy=policy,
                    guarded=guarded,
                    seeds=len(seeds),
                    jobs_released=jobs_released,
                    misses=misses,
                    aborts=aborts,
                    guard_activations=guard_acts,
                    fault_count=faults,
                    power=power,
                    baseline_power=base_power,
                )
            )
    return result
