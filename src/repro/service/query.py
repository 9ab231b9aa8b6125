"""The service query model.

A :class:`Query` is one fully-resolved request against the scheduling
service: a *kind* (what question is being asked), a concrete prioritised
task set in canonical base units (µs), and — for simulation-backed kinds
— the scheduler, seed, horizon, and execution-time model that pin the
answer down to a deterministic, cacheable value.

Resolution happens at parse time, not at execution time, so that the
content fingerprint (:mod:`repro.service.fingerprint`) is computed over
exactly what will run:

* named workloads (``"app": "ins"``) are expanded to their task
  parameters — an inline copy of the same tasks keys like the registry
  name for analytic kinds; an energy answer reports the task-set name
  (``"ins"`` vs ``"inline"``), so there the two key apart;
* times given in ``ms``/``s`` are normalised to µs (the library's base
  unit, see :mod:`repro.units`);
* a BCET ratio is applied to the task set;
* missing priorities are assigned rate-monotonically (the paper's
  default); explicit priorities are honoured;
* fields that cannot influence an analytic answer (scheduler, seed,
  horizon for ``schedulability``/``rta``) are canonicalised away, so
  equivalent analytic queries share one cache line.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional

from ..documents import (
    boolean, check_keys, fail, integer, number, parse_task, string, time_scale,
)
from ..errors import ConfigurationError, ServiceError
from ..tasks.generation import ExecutionTimeModel, GaussianModel, WcetModel
from ..tasks.priority import rate_monotonic
from ..tasks.task import TaskSet

#: The question kinds the service answers.
KINDS = ("schedulability", "rta", "energy")

#: Execution-time models a query may name (energy kind only).
EXECUTION_MODELS = ("wcet", "gaussian")


class QueryError(ServiceError):
    """A request is malformed or references unknown names (HTTP 400)."""

    kind = "bad-request"


@dataclass(frozen=True)
class Query:
    """One resolved, deterministic service request.

    Instances are built through :func:`parse_query` (JSON requests) or
    :func:`build_query` (in-process callers); both normalise the fields
    so that equality — and the content fingerprint — reflect *what will
    run*, not how the request was spelled.
    """

    kind: str
    taskset: TaskSet
    scheduler: str = "lpfps"
    seed: int = 1
    duration: Optional[float] = None
    execution: str = "gaussian"
    record_trace: bool = False

    def execution_model(self) -> ExecutionTimeModel:
        """Instantiate this query's execution-time model."""
        return GaussianModel() if self.execution == "gaussian" else WcetModel()

    def to_runspec(self):
        """The :class:`~repro.experiments.runner.RunSpec` this query runs as.

        Only meaningful for ``energy`` queries; analytic kinds never
        reach the simulator.
        """
        from ..experiments.runner import RunSpec

        if self.kind != "energy":
            raise QueryError(f"{self.kind} queries do not simulate")
        return RunSpec(
            taskset=self.taskset,
            scheduler=self.scheduler,
            seed=self.seed,
            execution_model=self.execution_model(),
            duration=self.duration,
            on_miss="record",
            record_trace=self.record_trace,
        )


@contextmanager
def bad_request() -> Iterator[None]:
    """Re-raise a field validator's refusal as a :class:`QueryError`."""
    try:
        yield
    except ConfigurationError as exc:
        raise QueryError(str(exc)) from exc


def build_query(
    kind: str,
    taskset: TaskSet,
    scheduler: str = "lpfps",
    seed: int = 1,
    bcet_ratio: Optional[float] = None,
    duration: Optional[float] = None,
    execution: str = "gaussian",
    record_trace: bool = False,
) -> Query:
    """Build a normalised :class:`Query` from in-process objects.

    *taskset* may lack priorities (rate-monotonic is assigned) and is
    copied with *bcet_ratio* applied when given.  For analytic kinds the
    simulation-only knobs are canonicalised so the fingerprint ignores
    them.  The scalar arguments pass the :mod:`repro.documents`
    validators, so a JSON request and an in-process call follow one set
    of rules.
    """
    if kind not in KINDS:
        raise QueryError(f"unknown query kind {kind!r}; available: {', '.join(KINDS)}")
    if not taskset.has_priorities:
        taskset = rate_monotonic(taskset)
    with bad_request():
        scheduler = string(scheduler, "scheduler").lower()
        seed = integer(seed, "seed")
        record_trace = boolean(record_trace, "record_trace")
        taskset.assert_priorities()
        if bcet_ratio is not None:
            ratio = number(bcet_ratio, "bcet_ratio", positive=True)
            taskset = taskset.with_bcet_ratio(ratio)
        if kind != "energy":
            # Analytic answers depend on the task set alone.
            return Query(kind=kind, taskset=taskset, scheduler="rta", seed=0,
                         duration=None, execution="wcet", record_trace=False)
        if duration is None:
            from ..experiments.runner import measurement_duration

            try:
                duration = measurement_duration(taskset)
            except (OverflowError, ValueError) as exc:
                fail("duration", f"no finite default for these periods ({exc})")
        duration = number(duration, "duration", positive=True)
    from ..schedulers.registry import available_schedulers

    if scheduler not in available_schedulers():
        raise QueryError(
            f"unknown scheduler {scheduler!r}; "
            f"available: {', '.join(available_schedulers())}"
        )
    if execution not in EXECUTION_MODELS:
        raise QueryError(
            f"unknown execution model {execution!r}; "
            f"available: {', '.join(EXECUTION_MODELS)}"
        )
    return Query(
        kind=kind,
        taskset=taskset,
        scheduler=scheduler,
        seed=seed,
        duration=duration,
        execution=execution,
        record_trace=record_trace,
    )


#: The fields of a ``POST /v1/query`` body (``timeout_s`` is the
#: server's, stripped before parsing).
_REQUEST_KEYS = (
    "kind", "app", "tasks", "time_unit", "scheduler", "seed",
    "bcet_ratio", "duration", "execution", "record_trace",
)


def parse_query(request: Mapping[str, Any]) -> Query:
    """Parse and normalise one JSON request body into a :class:`Query`.

    The request names its workload either by registry name (``"app"``)
    or inline (``"tasks"`` plus optional ``"time_unit"``); everything
    else is optional with the library's defaults.  Fields are checked
    by the :mod:`repro.documents` validators the scenario schema uses;
    a ``null`` top-level field means "not given".
    """
    with bad_request():
        check_keys(request, "", _REQUEST_KEYS)
        scale = time_scale(request)
        app, tasks = request.get("app"), request.get("tasks")
        if (app is None) == (tasks is None):
            raise QueryError("exactly one of 'app' or 'tasks' is required")
        if app is not None:
            from ..workloads.registry import available_workloads, get_workload

            app = string(app, "app")
            try:
                taskset = get_workload(app).taskset
            except ConfigurationError:
                raise QueryError(
                    f"unknown workload {app!r}; "
                    f"available: {', '.join(available_workloads())}"
                ) from None
        else:
            taskset = _inline_taskset(tasks, scale)
        duration = request.get("duration")
        if duration is not None:
            duration = number(duration, "duration", positive=True, scale=scale)
    return build_query(
        kind=request.get("kind", "energy"),
        taskset=taskset,
        scheduler=request.get("scheduler", "lpfps"),
        seed=request.get("seed", 1),
        bcet_ratio=request.get("bcet_ratio"),
        duration=duration,
        execution=request.get("execution", "gaussian"),
        record_trace=request.get("record_trace", False),
    )


def _inline_taskset(raw: Any, scale: float) -> TaskSet:
    """The request's ``tasks`` list: every task or none carries a priority."""
    if not isinstance(raw, list) or not raw:
        fail("tasks", f"expected a non-empty list, got {raw!r}")
    tasks = [parse_task(entry, f"tasks[{i}]", scale) for i, entry in enumerate(raw)]
    if len({task.priority is None for task in tasks}) > 1:
        fail("tasks", "either all tasks or none must carry a priority")
    try:
        return TaskSet(tasks, name="inline")
    except ConfigurationError as exc:
        fail("tasks", str(exc))
