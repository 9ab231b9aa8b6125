"""Execute a scenario's campaign grid through the experiment executor.

A scenario's campaign is the cross product *schedulers x seeds*; every
cell is one :class:`~repro.experiments.runner.RunSpec`, built entirely
from the scenario's normalised state, so a campaign inherits all the
executor's machinery for free — supervised pools, containment,
checkpointing, and (new in this PR) the supervisor-side ``progress``
hook the service streams live.

Weakly-hard constraints flow in two directions: schedulers flagged as
(m,k)-aware (currently ``jcl``) receive the scenario's constraints via a
picklable factory, and *every* finished cell's outcome trace is checked
against the constraints, so the report can state per cell whether its
windows held — the EXP-W contrast (``fps`` violates, ``jcl`` satisfies)
falls straight out of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.weakly_hard import WeaklyHard, check_result
from ..experiments.runner import CellFailure, RunSpec, run_many
from ..faults.layer import FaultLayer
from ..sim.metrics import SimulationResult
from .schema import Scenario, ScenarioFaults

#: A per-cell progress event (JSON-ready) as handed to ``progress``.
ProgressEvent = Dict[str, Any]


class _JclFactory:
    """Picklable zero-arg factory building a constraint-carrying JCL.

    Campaign cells cross process boundaries, so the scheduler slot of a
    :class:`RunSpec` must pickle; a module-level class holding the plain
    ``(m, k)`` pairs does, where a lambda over the scenario would not.
    """

    def __init__(self, constraints: Mapping[str, WeaklyHard]):
        self.constraints: Dict[str, Tuple[int, int]] = {
            name: constraint.as_pair() for name, constraint in constraints.items()
        }

    def __call__(self):
        from ..schedulers.jcl import JclScheduler

        return JclScheduler(constraints=self.constraints)

    def checkpoint_payload(self) -> Dict[str, Any]:
        """Content-address this factory for the checkpoint journal.

        The constraint map fully determines the scheduler built, so a
        scenario cell carrying a jcl factory is journalable — the
        ``"factory"`` discriminator keeps the dict from ever aliasing a
        plain registry scheduler name.
        """
        return {
            "factory": "scenario-jcl",
            "constraints": sorted(
                [name, m, k] for name, (m, k) in self.constraints.items()
            ),
        }


class _FaultFactory:
    """Picklable zero-arg factory for a scenario's fault layer.

    Each cell builds a *fresh* layer so injector RNG state never leaks
    between cells (the same reason the executor takes factories at all).
    """

    def __init__(self, faults: ScenarioFaults):
        self.faults = faults

    def __call__(self) -> FaultLayer:
        return self.faults.build()

    def checkpoint_payload(self) -> Dict[str, Any]:
        """Content-address this factory for the checkpoint journal.

        The normalised :class:`ScenarioFaults` document (injector,
        intensity, seed, guards) fully determines the layer each cell
        builds, under the PR-1 seeding contract.
        """
        return {"factory": "scenario-faults", **self.faults.as_document()}


def scenario_specs(scenario: Scenario) -> List[RunSpec]:
    """The scenario's campaign grid as executor cells, scheduler-major."""
    from ..schedulers.registry import WEAKLY_HARD_SCHEDULERS

    fault_factory = _FaultFactory(scenario.faults)
    specs: List[RunSpec] = []
    for scheduler in scenario.campaign.schedulers:
        if scenario.constraints and scheduler in WEAKLY_HARD_SCHEDULERS:
            policy: Any = _JclFactory(scenario.constraints)
        else:
            policy = scheduler
        for seed in scenario.campaign.seeds:
            specs.append(
                RunSpec(
                    taskset=scenario.taskset,
                    scheduler=policy,
                    seed=seed,
                    spec=scenario.processor(),
                    execution_model=scenario.execution_model(),
                    duration=scenario.campaign.duration,
                    on_miss="record",
                    faults=fault_factory,
                    extra={"scenario": scenario.name, "scheduler_name": scheduler},
                )
            )
    return specs


@dataclass(frozen=True)
class CellOutcome:
    """One executed campaign cell plus its weakly-hard verdict."""

    index: int
    scheduler: str
    seed: int
    result: Any  # SimulationResult or CellFailure
    #: First violating window per constrained task; empty when the cell
    #: failed or the scenario has no constraints.
    violations: Dict[str, int]

    @property
    def failed(self) -> bool:
        return isinstance(self.result, CellFailure)

    @property
    def satisfied(self) -> Optional[bool]:
        """Did every (m,k) window hold?  ``None`` when the cell failed."""
        if self.failed:
            return None
        return not self.violations


@dataclass(frozen=True)
class ScenarioReport:
    """A finished scenario campaign: every cell, content-addressed."""

    scenario: Scenario
    fingerprint: str
    cells: Tuple[CellOutcome, ...]

    def by_scheduler(self) -> Dict[str, List[CellOutcome]]:
        grouped: Dict[str, List[CellOutcome]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.scheduler, []).append(cell)
        return grouped

    def satisfied_by_scheduler(self) -> Dict[str, Optional[bool]]:
        """Per scheduler: every cell's windows held (None if any failed)."""
        verdicts: Dict[str, Optional[bool]] = {}
        for scheduler, cells in self.by_scheduler().items():
            flags = [cell.satisfied for cell in cells]
            verdicts[scheduler] = (
                None if any(flag is None for flag in flags) else all(flags)
            )
        return verdicts

    def render(self) -> str:
        """Human-readable per-cell table."""
        lines = [
            f"scenario {self.scenario.name}  "
            f"[fingerprint {self.fingerprint[:12]}]",
            f"{'scheduler':<18} {'seed':>4} {'misses':>7} "
            f"{'power':>7} {'(m,k)':>7}",
        ]
        for cell in self.cells:
            if cell.failed:
                lines.append(
                    f"{cell.scheduler:<18} {cell.seed:>4} "
                    f"FAILED: {cell.result.message}"
                )
                continue
            verdict = "-"
            if self.scenario.constraints:
                verdict = "ok" if cell.satisfied else "VIOLATED"
            lines.append(
                f"{cell.scheduler:<18} {cell.seed:>4} "
                f"{len(cell.result.deadline_misses):>7} "
                f"{cell.result.average_power:>7.3f} {verdict:>7}"
            )
        return "\n".join(lines)


def run_scenario(
    scenario: Scenario,
    jobs: Optional[int] = 1,
    *,
    failures: str = "contain",
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    checkpoint: Union[None, str, "Path"] = None,
) -> ScenarioReport:
    """Run the whole campaign grid and judge every cell's (m,k) windows.

    *progress*, when given, receives one JSON-ready event per finished
    cell (supervisor-side, completion order) — the payload the service's
    ``/v1/stream`` endpoint forwards verbatim.

    *checkpoint* threads the campaign through the executor's durable
    journal: every finished cell is committed (fsynced) before its
    progress event fires, and a re-run of the identical scenario
    prefills committed cells instead of recomputing them — prefill
    events fire too, in cell order, flagged ``"checkpoint": "hit"``.
    Scenario cells are content-addressable because both factory slots
    (jcl constraints, fault plan) self-describe via
    ``checkpoint_payload()``.
    """
    specs = scenario_specs(scenario)
    labels = [
        (spec.extra["scheduler_name"], spec.seed) for spec in specs
    ]
    outcomes: Dict[int, CellOutcome] = {}

    def judge(index: int, result: Any) -> CellOutcome:
        scheduler, seed = labels[index]
        violations: Dict[str, int] = {}
        if isinstance(result, SimulationResult) and scenario.constraints:
            windows = check_result(
                result,
                scenario.taskset,
                scenario.constraints,
                scenario.campaign.duration,
            )
            violations = {
                name: window
                for name, window in windows.items()
                if window is not None
            }
        return CellOutcome(
            index=index,
            scheduler=scheduler,
            seed=seed,
            result=result,
            violations=violations,
        )

    def observe(index: int, result: Any) -> None:
        outcome = judge(index, result)
        outcomes[index] = outcome
        if progress is None:
            return
        event: ProgressEvent = {
            "event": "cell",
            "cell": index,
            "total": len(specs),
            "scheduler": outcome.scheduler,
            "seed": outcome.seed,
            "ok": not outcome.failed,
        }
        if outcome.failed:
            event["error"] = outcome.result.message
            event["error_kind"] = outcome.result.error_kind
        else:
            event["jobs_completed"] = outcome.result.jobs_completed
            event["deadline_misses"] = len(outcome.result.deadline_misses)
            event["average_power"] = outcome.result.average_power
            event["preemptions"] = outcome.result.preemptions
            if "checkpoint" in outcome.result.metadata:
                event["checkpoint"] = outcome.result.metadata["checkpoint"]
            if scenario.constraints:
                event["weakly_hard_ok"] = bool(outcome.satisfied)
                event["violations"] = dict(outcome.violations)
        progress(event)

    results = run_many(
        specs,
        jobs=jobs,
        failures=failures,
        progress=observe,
        checkpoint=checkpoint,
    )
    cells = tuple(
        outcomes.get(index, judge(index, result))
        for index, result in enumerate(results)
    )
    return ScenarioReport(
        scenario=scenario,
        fingerprint=scenario.fingerprint(),
        cells=cells,
    )
