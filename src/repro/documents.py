"""Strict field validators for the JSON documents the library accepts.

``POST /v1/query`` bodies (:mod:`repro.service.query`) and scenario
documents (:mod:`repro.scenarios.schema`, ``POST /v1/scenario``) are
checked by these helpers and no others, so both endpoints follow one
set of rules:

* unknown keys are refused;
* a number is a JSON int or float — never a bool or a string — and must
  be finite: ``Infinity``, ``NaN`` and integers too large for a float
  are refused, because no simulation over them ends or means anything;
* an integer is a JSON int (``1.5`` and ``true`` are refused);
* a boolean is ``true`` or ``false``.

Every refusal is a :class:`~repro.errors.ConfigurationError` whose
message starts with the offending field path (``tasks[3].wcet``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any, Dict, NoReturn, Tuple

from .errors import ConfigurationError
from .tasks.task import Task

#: Multipliers taking document time values to the kernel's µs.
TIME_UNITS: Dict[str, float] = {"us": 1.0, "ms": 1_000.0, "s": 1_000_000.0}

#: The keys of one task object.
TASK_KEYS = ("name", "wcet", "period", "deadline", "bcet", "phase", "priority")


def fail(path: str, message: str) -> NoReturn:
    raise ConfigurationError(f"{path}: {message}" if path else message)


def check_keys(obj: Any, path: str, allowed: Tuple[str, ...]) -> None:
    """Refuse a non-object *obj* and any key outside *allowed*."""
    if not isinstance(obj, Mapping):
        fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        fail(
            f"{path}.{unknown[0]}" if path else unknown[0],
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


def string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        fail(path, f"expected a string, got {value!r}")
    return value


def number(
    value: Any,
    path: str,
    *,
    positive: bool = False,
    nonnegative: bool = False,
    scale: float = 1.0,
) -> float:
    """*value* times *scale* as a finite float, range-checked."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(path, f"expected a number, got {value!r}")
    try:
        result = float(value) * scale
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        fail(path, f"expected a finite number, got {value!r}")
    if positive and result <= 0:
        fail(path, f"must be > 0, got {value!r}")
    if nonnegative and result < 0:
        fail(path, f"must be >= 0, got {value!r}")
    return result


def integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        fail(path, f"expected an integer, got {value!r}")
    return value


def boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        fail(path, f"expected a boolean, got {value!r}")
    return value


def time_scale(document: Mapping[str, Any]) -> float:
    """The µs multiplier of *document*'s ``time_unit`` (default ``us``)."""
    unit = document.get("time_unit", "us")
    if not isinstance(unit, str) or unit not in TIME_UNITS:
        fail("time_unit", f"must be one of {sorted(TIME_UNITS)}, got {unit!r}")
    return TIME_UNITS[unit]


def parse_task(
    obj: Any, path: str, scale: float, extra_keys: Tuple[str, ...] = ()
) -> Task:
    """One task object, times scaled to µs; its priority stays ``None``
    when the object gives none.  *extra_keys* are the caller's own
    keys, allowed here and left for the caller to read."""
    check_keys(obj, path, TASK_KEYS + extra_keys)
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{path}.name", f"expected a non-empty string, got {name!r}")
    for key in ("wcet", "period"):
        if key not in obj:
            fail(f"{path}.{key}", "required key is missing")
    times = {
        key: number(
            obj[key], f"{path}.{key}",
            positive=key != "phase", nonnegative=True, scale=scale,
        )
        for key in ("wcet", "period", "deadline", "bcet", "phase")
        if key in obj
    }
    priority = None
    if "priority" in obj:
        priority = integer(obj["priority"], f"{path}.priority")
        if priority < 0:
            fail(f"{path}.priority", f"must be >= 0, got {priority}")
    try:
        return Task(name=name, priority=priority, **times)
    except ConfigurationError as exc:
        fail(path, str(exc))
