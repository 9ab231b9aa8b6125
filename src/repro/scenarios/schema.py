"""The declarative scenario schema: parse, validate, normalise, fingerprint.

A *scenario* is one JSON document describing a whole experiment — task
set, processor, execution-time model, fault plan, campaign grid, and
optional weakly-hard (m,k) constraints — so an experiment can be named,
diffed, and content-addressed instead of being wired up in Python
(ROADMAP open item 5).  The document format is versioned via the
``schema`` key (currently ``repro/scenario/v1``).

Three layers, strictly ordered:

1. **Validation** (:func:`parse_scenario`) is strict: unknown keys are
   rejected with the full field path (``tasks[3].wcett``), every number
   is range-checked, scheduler/injector/processor names are resolved
   against their registries, and a weakly-hard demand above 1.0 — which
   no scheduler can satisfy — fails the parse outright.
2. **Normalisation** produces a canonical in-memory :class:`Scenario`:
   times scaled to µs, priorities made explicit, tasks sorted by name,
   defaults filled in.  :meth:`Scenario.canonical_document` re-emits
   this state as a document that is itself a valid scenario and parses
   back to an identical fingerprint (the round-trip property CI pins).
3. **Fingerprinting** (:meth:`Scenario.fingerprint`) hashes the
   canonical state with the same numeric encoding the service cache
   uses, and *composes* with the service workload fingerprint: the
   payload embeds :func:`repro.service.fingerprint.taskset_fingerprint`
   of the normalised task set, so a scenario and a service query over
   identical tasks agree on the workload identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.weakly_hard import (
    WeaklyHard,
    coerce_constraint,
    weakly_hard_demand,
)
from ..documents import (
    boolean, check_keys, fail, integer, number, parse_task, string, time_scale,
)
from ..errors import ConfigurationError
from ..experiments.checkpoint import canonical_tasks
from ..faults.guards import MISS_POLICIES, GuardConfig
from ..faults.injectors import available_injectors, make_injector
from ..faults.layer import FaultLayer
from ..power.processor import ProcessorSpec
from ..schedulers.registry import available_schedulers
from ..service.fingerprint import FINGERPRINT_VERSION, taskset_fingerprint
from ..store import canonical_sha256
from ..tasks.generation import (
    BcetModel,
    BimodalModel,
    GaussianModel,
    UniformModel,
    WcetModel,
)
from ..tasks.priority import rate_monotonic
from ..tasks.task import Task, TaskSet

#: The one document version this parser understands.
SCHEMA_ID = "repro/scenario/v1"

PRIORITY_POLICIES = ("rate_monotonic", "explicit")

_PROCESSORS = {"arm8": ProcessorSpec.arm8, "ideal": ProcessorSpec.ideal}

#: model name -> (factory, extra knob names it accepts)
_EXECUTION_MODELS = {
    "wcet": (WcetModel, ()),
    "bcet": (BcetModel, ()),
    "gaussian": (GaussianModel, ()),
    "uniform": (UniformModel, ()),
    "bimodal": (BimodalModel, ("p_short", "spread")),
}

_SLUG_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_-")


@dataclass(frozen=True)
class ScenarioFaults:
    """Normalised fault plan: at most one named injector plus guards."""

    injector: Optional[str] = None
    intensity: float = 0.0
    seed: int = 0
    miss_policy: str = "run-to-completion"
    overrun_watchdog: bool = False
    sleep_guard: bool = False

    def build(self) -> FaultLayer:
        """A fresh :class:`FaultLayer` realising this plan."""
        injectors = ()
        if self.injector is not None:
            injectors = (make_injector(self.injector, self.intensity),)
        guards = GuardConfig(
            overrun_watchdog=self.overrun_watchdog,
            sleep_guard=self.sleep_guard,
            miss_policy=self.miss_policy,
        )
        return FaultLayer(injectors=injectors, guards=guards, seed=self.seed)

    def as_document(self) -> Dict[str, Any]:
        return {
            "injector": self.injector,
            "intensity": self.intensity,
            "seed": self.seed,
            "miss_policy": self.miss_policy,
            "overrun_watchdog": self.overrun_watchdog,
            "sleep_guard": self.sleep_guard,
        }


@dataclass(frozen=True)
class ScenarioCampaign:
    """Normalised campaign grid: scheduler x seed at a fixed horizon (µs)."""

    schedulers: Tuple[str, ...]
    seeds: Tuple[int, ...]
    duration: float

    def as_document(self) -> Dict[str, Any]:
        return {
            "schedulers": list(self.schedulers),
            "seeds": list(self.seeds),
            "duration": self.duration,
        }


@dataclass(frozen=True)
class Scenario:
    """One fully normalised scenario (times in µs, priorities explicit)."""

    name: str
    taskset: TaskSet
    constraints: Mapping[str, WeaklyHard]
    processor_name: str
    execution: Mapping[str, Any]
    faults: ScenarioFaults
    campaign: ScenarioCampaign
    description: str = ""
    citation: str = ""
    notes: str = ""
    pack: Optional[str] = field(default=None, compare=False)

    def processor(self) -> ProcessorSpec:
        return _PROCESSORS[self.processor_name]()

    def execution_model(self):
        """A fresh execution-time model instance for one campaign cell."""
        factory, knobs = _EXECUTION_MODELS[self.execution["model"]]
        kwargs = {knob: self.execution[knob] for knob in knobs}
        return factory(**kwargs)

    def canonical_document(self) -> Dict[str, Any]:
        """Re-emit the normalised state as a valid scenario document.

        The emitted document is in µs with explicit priorities and
        name-sorted tasks; parsing it yields an identical fingerprint.
        """
        tasks: List[Dict[str, Any]] = []
        for task in sorted(self.taskset, key=lambda t: t.name):
            entry: Dict[str, Any] = {
                "name": task.name,
                "wcet": task.wcet,
                "period": task.period,
                "deadline": task.deadline,
                "bcet": task.bcet,
                "phase": task.phase,
                "priority": int(task.priority),
            }
            constraint = self.constraints.get(task.name)
            if constraint is not None:
                entry["weakly_hard"] = list(constraint.as_pair())
            tasks.append(entry)
        return {
            "schema": SCHEMA_ID,
            "name": self.name,
            "description": self.description,
            "citation": self.citation,
            "notes": self.notes,
            "time_unit": "us",
            "priorities": "explicit",
            "tasks": tasks,
            "processor": {"name": self.processor_name},
            "execution": dict(self.execution),
            "faults": self.faults.as_document(),
            "campaign": self.campaign.as_document(),
        }

    def fingerprint(self) -> str:
        """SHA-256 content address of the normalised scenario.

        Embeds the service-layer workload fingerprint of the task set, so
        the scenario identity *composes* with the query-cache identity:
        equal task sets contribute equal ``workload`` digests here and
        equal cache keys there.
        """
        num = lambda value: repr(float(value))  # noqa: E731 - match service encoding
        payload = {
            "v": FINGERPRINT_VERSION,
            "schema": SCHEMA_ID,
            "name": self.name,
            "workload": taskset_fingerprint(self.taskset),
            "tasks": canonical_tasks(self.taskset),
            "weakly_hard": {
                name: list(constraint.as_pair())
                for name, constraint in sorted(self.constraints.items())
            },
            "processor": self.processor_name,
            "execution": {
                key: value if isinstance(value, str) else num(value)
                for key, value in sorted(self.execution.items())
            },
            "faults": {
                "injector": self.faults.injector,
                "intensity": num(self.faults.intensity),
                "seed": int(self.faults.seed),
                "miss_policy": self.faults.miss_policy,
                "overrun_watchdog": bool(self.faults.overrun_watchdog),
                "sleep_guard": bool(self.faults.sleep_guard),
            },
            "campaign": {
                "schedulers": list(self.campaign.schedulers),
                "seeds": [int(seed) for seed in self.campaign.seeds],
                "duration": num(self.campaign.duration),
            },
        }
        return canonical_sha256(payload)


_TOP_KEYS = (
    "schema",
    "name",
    "description",
    "citation",
    "notes",
    "time_unit",
    "priorities",
    "tasks",
    "processor",
    "execution",
    "faults",
    "campaign",
)
_FAULT_KEYS = (
    "injector",
    "intensity",
    "seed",
    "miss_policy",
    "overrun_watchdog",
    "sleep_guard",
)
_CAMPAIGN_KEYS = ("schedulers", "seeds", "duration", "hyperperiods")


def _parse_task(
    obj: Any, path: str, scale: float, explicit_priorities: bool
) -> Tuple[Task, Optional[WeaklyHard]]:
    task = parse_task(obj, path, scale, extra_keys=("weakly_hard",))
    if task.priority is not None and not explicit_priorities:
        fail(f"{path}.priority", "only allowed when priorities is 'explicit'")
    if task.priority is None and explicit_priorities:
        fail(f"{path}.priority", "required when priorities is 'explicit'")
    constraint = None
    if "weakly_hard" in obj:
        pair = obj["weakly_hard"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            fail(
                f"{path}.weakly_hard",
                f"expected an [m, k] pair of integers, got {pair!r}",
            )
        m, k = (integer(v, f"{path}.weakly_hard[{j}]") for j, v in enumerate(pair))
        constraint = coerce_constraint((m, k), where=f"{path}.weakly_hard")
    return task, constraint


def _parse_execution(obj: Any, path: str) -> Tuple[Dict[str, Any], Optional[float]]:
    allowed = ("model", "bcet_ratio", "p_short", "spread")
    check_keys(obj, path, allowed)
    model = string(obj.get("model", "gaussian"), f"{path}.model")
    if model not in _EXECUTION_MODELS:
        fail(
            f"{path}.model",
            f"unknown model {model!r}; "
            f"available: {', '.join(sorted(_EXECUTION_MODELS))}",
        )
    _, knobs = _EXECUTION_MODELS[model]
    normalised: Dict[str, Any] = {"model": model}
    for knob, default in (("p_short", 0.8), ("spread", 0.05)):
        if knob in obj and knob not in knobs:
            fail(f"{path}.{knob}", f"not accepted by the {model!r} model")
        if knob in knobs:
            value = number(obj.get(knob, default), f"{path}.{knob}", nonnegative=True)
            if knob == "p_short" and not 0.0 <= value <= 1.0:
                fail(f"{path}.p_short", f"must be within [0, 1], got {value}")
            normalised[knob] = value
    bcet_ratio = None
    if "bcet_ratio" in obj:
        bcet_ratio = number(obj["bcet_ratio"], f"{path}.bcet_ratio", positive=True)
        if bcet_ratio > 1.0:
            fail(f"{path}.bcet_ratio", f"must be <= 1, got {bcet_ratio}")
    return normalised, bcet_ratio


def _parse_faults(obj: Any, path: str) -> ScenarioFaults:
    check_keys(obj, path, _FAULT_KEYS)
    injector = obj.get("injector")
    if injector is not None:
        if not isinstance(injector, str) or injector not in available_injectors():
            fail(
                f"{path}.injector",
                f"unknown injector {injector!r}; "
                f"available: {', '.join(available_injectors())}",
            )
    intensity = number(obj.get("intensity", 0.0), f"{path}.intensity", nonnegative=True)
    seed = integer(obj.get("seed", 0), f"{path}.seed")
    miss_policy = obj.get("miss_policy", "run-to-completion")
    if miss_policy not in MISS_POLICIES:
        fail(
            f"{path}.miss_policy",
            f"must be one of {MISS_POLICIES}, got {miss_policy!r}",
        )
    flags = {
        key: boolean(obj.get(key, False), f"{path}.{key}")
        for key in ("overrun_watchdog", "sleep_guard")
    }
    return ScenarioFaults(
        injector=injector,
        intensity=intensity,
        seed=seed,
        miss_policy=miss_policy,
        overrun_watchdog=flags["overrun_watchdog"],
        sleep_guard=flags["sleep_guard"],
    )


def _parse_campaign(
    obj: Any, path: str, scale: float, taskset: TaskSet
) -> ScenarioCampaign:
    check_keys(obj, path, _CAMPAIGN_KEYS)
    schedulers = obj.get("schedulers", ["fps"])
    if not isinstance(schedulers, list) or not schedulers:
        fail(f"{path}.schedulers", f"expected a non-empty list, got {schedulers!r}")
    known = available_schedulers()
    for i, scheduler in enumerate(schedulers):
        if not isinstance(scheduler, str) or scheduler.lower() not in known:
            fail(
                f"{path}.schedulers[{i}]",
                f"unknown scheduler {scheduler!r}; available: {', '.join(known)}",
            )
    schedulers = tuple(s.lower() for s in schedulers)
    if len(set(schedulers)) != len(schedulers):
        fail(f"{path}.schedulers", f"duplicate entries in {list(schedulers)!r}")
    seeds = obj.get("seeds", [1])
    if not isinstance(seeds, list) or not seeds:
        fail(f"{path}.seeds", f"expected a non-empty list, got {seeds!r}")
    seeds = tuple(
        integer(seed, f"{path}.seeds[{i}]") for i, seed in enumerate(seeds)
    )
    if "duration" in obj and "hyperperiods" in obj:
        fail(f"{path}.duration", "give either duration or hyperperiods, not both")
    if "duration" in obj:
        duration = number(
            obj["duration"], f"{path}.duration", positive=True, scale=scale
        )
    else:
        hyperperiods = obj.get("hyperperiods", 1)
        hyperperiods = integer(hyperperiods, f"{path}.hyperperiods")
        if hyperperiods < 1:
            fail(f"{path}.hyperperiods", f"must be >= 1, got {hyperperiods}")
        try:
            hyperperiod = taskset.hyperperiod
        except (OverflowError, ValueError) as exc:
            fail(
                f"{path}.hyperperiods",
                f"the periods have no finite hyperperiod ({exc}); give a duration",
            )
        duration = number(hyperperiods, f"{path}.hyperperiods", scale=hyperperiod)
    return ScenarioCampaign(schedulers=schedulers, seeds=seeds, duration=duration)


def parse_scenario(document: Mapping[str, Any]) -> Scenario:
    """Validate *document* strictly and return its normalised Scenario.

    Every rejection is a :class:`~repro.errors.ConfigurationError` whose
    message starts with the offending field path.
    """
    check_keys(document, "", _TOP_KEYS)
    schema = document.get("schema")
    if schema != SCHEMA_ID:
        fail("schema", f"expected {SCHEMA_ID!r}, got {schema!r}")
    name = document.get("name")
    if not isinstance(name, str) or not name or not set(name) <= _SLUG_CHARS:
        fail(
            "name",
            "expected a slug of [a-z0-9_-] characters, got " + repr(name),
        )
    description = string(document.get("description", ""), "description")
    citation = string(document.get("citation", ""), "citation")
    notes = string(document.get("notes", ""), "notes")
    scale = time_scale(document)
    priorities = document.get("priorities", "rate_monotonic")
    if priorities not in PRIORITY_POLICIES:
        fail(
            "priorities",
            f"must be one of {PRIORITY_POLICIES}, got {priorities!r}",
        )
    raw_tasks = document.get("tasks")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        fail("tasks", f"expected a non-empty list, got {raw_tasks!r}")
    explicit = priorities == "explicit"
    tasks: List[Task] = []
    constraints: Dict[str, WeaklyHard] = {}
    for i, raw in enumerate(raw_tasks):
        task, constraint = _parse_task(raw, f"tasks[{i}]", scale, explicit)
        tasks.append(task)
        if constraint is not None:
            constraints[task.name] = constraint

    processor = document.get("processor", {"name": "arm8"})
    check_keys(processor, "processor", ("name",))
    processor_name = string(processor.get("name", "arm8"), "processor.name")
    if processor_name not in _PROCESSORS:
        fail(
            "processor.name",
            f"must be one of {sorted(_PROCESSORS)}, got {processor_name!r}",
        )

    execution, bcet_ratio = _parse_execution(
        document.get("execution", {}), "execution"
    )
    if bcet_ratio is not None and any("bcet" in raw for raw in raw_tasks):
        fail(
            "execution.bcet_ratio",
            "conflicts with per-task bcet values; give one or the other",
        )

    try:
        taskset = TaskSet(tasks, name=name)
    except Exception as exc:
        fail("tasks", str(exc))
    if bcet_ratio is not None:
        taskset = taskset.with_bcet_ratio(bcet_ratio)
    if not explicit:
        taskset = rate_monotonic(taskset)

    faults = _parse_faults(document.get("faults", {}), "faults")
    campaign = _parse_campaign(
        document.get("campaign", {}), "campaign", scale, taskset
    )

    if constraints:
        demand = weakly_hard_demand(taskset, constraints)
        if demand > 1.0 + 1e-9:
            fail(
                "tasks",
                f"weakly-hard demand {demand:.3f} exceeds the processor "
                "(sum of (m/k) * utilization must be <= 1); the scenario "
                "is infeasible under any scheduler",
            )

    return Scenario(
        name=name,
        taskset=taskset,
        constraints=constraints,
        processor_name=processor_name,
        execution=execution,
        faults=faults,
        campaign=campaign,
        description=description,
        citation=citation,
        notes=notes,
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse the scenario document stored at *path* (JSON)."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    scenario = parse_scenario(document)
    return scenario
