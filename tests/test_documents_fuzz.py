"""Fuzz both request parsers with hostile field values.

Each value — finite floats, ±inf, NaN, bools, numeric strings, an
integer too large for a float, ``None`` — goes into one field of an
otherwise valid query or scenario.  The parser must either refuse it
with a :class:`QueryError`/:class:`ConfigurationError` (never a
``TypeError``, ``ValueError`` or ``OverflowError``), or accept it into
a request the kernel can run: finite, positive task times and a finite
horizon.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402
from repro.scenarios import SCHEMA_ID, parse_scenario  # noqa: E402
from repro.service.query import QueryError, parse_query  # noqa: E402
from repro.service.server import ScheduleService  # noqa: E402

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from(
        [math.inf, -math.inf, math.nan, True, False, None, 10**400,
         "1", "1.5", "inf", "nan", "1e3"]
    ),
)
UNITS = st.sampled_from(["us", "ms", "s"])
TIME_FIELDS = ("wcet", "period", "deadline", "bcet", "phase")
TASKS = [
    {"name": "a", "wcet": 1.0, "period": 10.0},
    {"name": "b", "wcet": 2, "period": 20},
]


def _accepted(parse, request):
    """The parse, or None when it was refused the documented way."""
    try:
        return parse(request)
    except (QueryError, ConfigurationError):
        return None


def _assert_runnable(taskset):
    for task in taskset:
        for value in (task.wcet, task.period, task.deadline, task.bcet):
            assert math.isfinite(value) and value > 0
        assert math.isfinite(task.phase) and task.phase >= 0


def _with_task_field(field, value):
    tasks = [dict(task) for task in TASKS]
    tasks[0][field] = value
    return tasks


@given(
    field=st.sampled_from(TIME_FIELDS + ("duration", "seed", "bcet_ratio")),
    value=VALUES,
    unit=UNITS,
    kind=st.sampled_from(["energy", "rta"]),
)
def test_query_fields(field, value, unit, kind):
    if field in TIME_FIELDS:
        request = {"tasks": _with_task_field(field, value)}
    else:
        request = {"tasks": TASKS, field: value}
    query = _accepted(parse_query, {**request, "kind": kind, "time_unit": unit})
    if query is None:
        return
    _assert_runnable(query.taskset)
    assert type(query.seed) is int
    if kind == "energy":
        assert math.isfinite(query.duration) and query.duration > 0


class _Recorder:
    """Stands in for the service: keeps what ``query_dict`` passes on."""

    def query(self, query, timeout=None):
        self.timeout = timeout
        return {}


@given(value=VALUES)
def test_query_timeout(value):
    recorder = _Recorder()
    request = {"kind": "rta", "tasks": TASKS, "timeout_s": value}
    if _accepted(lambda r: ScheduleService.query_dict(recorder, r), request) is None:
        return
    assert recorder.timeout is None or (
        math.isfinite(recorder.timeout) and recorder.timeout > 0
    )


@given(
    field=st.sampled_from(TIME_FIELDS + ("duration", "seeds")),
    value=VALUES,
    unit=UNITS,
    explicit_horizon=st.booleans(),
)
def test_scenario_fields(field, value, unit, explicit_horizon):
    campaign = {"duration": 1000} if explicit_horizon else {}
    tasks = [dict(task) for task in TASKS]
    if field in TIME_FIELDS:
        tasks = _with_task_field(field, value)
    elif field == "duration":
        campaign["duration"] = value
    else:
        campaign["seeds"] = [1, value]
    document = {
        "schema": SCHEMA_ID, "name": "fuzz", "time_unit": unit,
        "tasks": tasks, "campaign": campaign,
    }
    scenario = _accepted(parse_scenario, document)
    if scenario is None:
        return
    _assert_runnable(scenario.taskset)
    assert math.isfinite(scenario.campaign.duration)
    assert scenario.campaign.duration > 0
    assert all(type(seed) is int for seed in scenario.campaign.seeds)
    scenario.fingerprint()
