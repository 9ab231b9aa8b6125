"""One set of request validators for ``/v1/query`` and ``/v1/scenario``.

Query bodies, their ``timeout_s``, inline task lists, the scenario
envelope and scenario documents all go through
:mod:`repro.documents`.  Every refusal path below is driven once, and
each refusal must name its field path: a ``QueryError`` for the query
side (HTTP 400), a ``ConfigurationError`` for scenario documents.
Numbers must be finite: an infinite horizon never ends a kernel run,
and a NaN one answers garbage that would be cached.
"""

import math

import pytest

from repro import documents
from repro.errors import ConfigurationError
from repro.scenarios import SCHEMA_ID, parse_scenario
from repro.service.query import QueryError, build_query, parse_query
from repro.service.server import ScheduleService
from repro.workloads.registry import get_workload

HUGE = 10**400

TASKS = [
    {"name": "a", "wcet": 1.0, "period": 10.0},
    {"name": "b", "wcet": 2.0, "period": 20.0},
]


def _inline(**task_fields):
    first = {**TASKS[0], **task_fields}
    return {"tasks": [first, TASKS[1]]}


def _scenario(**overrides):
    document = {"schema": SCHEMA_ID, "name": "unit", "tasks": [dict(t) for t in TASKS]}
    document.update(overrides)
    return document


class TestHelpers:
    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, HUGE, -HUGE]
    )
    def test_number_is_finite(self, value):
        with pytest.raises(ConfigurationError, match=r"^x: expected a finite number"):
            documents.number(value, "x")

    @pytest.mark.parametrize("value", [True, "1", None, [1]])
    def test_number_is_a_json_number(self, value):
        with pytest.raises(ConfigurationError, match=r"^x: expected a number"):
            documents.number(value, "x")

    def test_scaled_overflow_is_not_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            documents.number(1e308, "x", scale=1_000_000.0)

    def test_ranges(self):
        with pytest.raises(ConfigurationError, match=r"^x: must be > 0"):
            documents.number(0, "x", positive=True)
        with pytest.raises(ConfigurationError, match=r"^x: must be >= 0"):
            documents.number(-1, "x", nonnegative=True)
        assert documents.number(2, "x", scale=1_000.0) == 2_000.0

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None])
    def test_integer_is_a_json_int(self, value):
        with pytest.raises(ConfigurationError, match=r"^x: expected an integer"):
            documents.integer(value, "x")

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_boolean_is_a_json_bool(self, value):
        with pytest.raises(ConfigurationError, match=r"^x: expected a boolean"):
            documents.boolean(value, "x")

    def test_string_and_keys(self):
        with pytest.raises(ConfigurationError, match=r"^x: expected a string"):
            documents.string(5, "x")
        with pytest.raises(ConfigurationError, match=r"^expected an object"):
            documents.check_keys([], "", ("a",))
        with pytest.raises(ConfigurationError, match=r"^p\.b: unknown key"):
            documents.check_keys({"b": 1}, "p", ("a",))

    @pytest.mark.parametrize("unit", ["min", ["ms"], None])
    def test_time_unit(self, unit):
        with pytest.raises(ConfigurationError, match=r"^time_unit: must be one of"):
            documents.time_scale({"time_unit": unit})


#: (request, the field path its refusal must start with)
BAD_QUERIES = [
    ({"app": "cnc", "duration": math.inf}, "duration"),
    ({"app": "cnc", "duration": math.nan}, "duration"),
    ({"app": "cnc", "duration": "inf"}, "duration"),
    ({"app": "cnc", "duration": HUGE}, "duration"),
    ({"app": "cnc", "duration": 0}, "duration"),
    ({"app": "cnc", "duration": 1e308, "time_unit": "s"}, "duration"),
    ({"app": "cnc", "seed": 1.5}, "seed"),
    ({"app": "cnc", "seed": True}, "seed"),
    ({"app": "cnc", "seed": "1"}, "seed"),
    ({"app": "cnc", "record_trace": "false"}, "record_trace"),
    ({"app": "cnc", "record_trace": 1}, "record_trace"),
    ({"app": "cnc", "bcet_ratio": math.inf}, "bcet_ratio"),
    ({"app": "cnc", "bcet_ratio": "0.5"}, "bcet_ratio"),
    ({"app": "cnc", "bcet_ratio": 0}, "bcet_ratio"),
    ({"app": "cnc", "scheduler": 5}, "scheduler"),
    ({"app": 5}, "app"),
    ({"app": "cnc", "time_unit": ["ms"]}, "time_unit"),
    ({"app": "cnc", "wat": 1}, "wat: unknown key"),
    ({"kind": "rta", "app": "cnc", "seed": 1.5}, "seed"),
    (_inline(wcet=True), r"tasks\[0\]\.wcet"),
    (_inline(wcet="1"), r"tasks\[0\]\.wcet"),
    (_inline(wcet=None), r"tasks\[0\]\.wcet"),
    (_inline(period=HUGE), r"tasks\[0\]\.period"),
    (_inline(period=math.nan), r"tasks\[0\]\.period"),
    (_inline(phase=-1.0), r"tasks\[0\]\.phase"),
    (_inline(bcet=5.0), r"tasks\[0\]: a: bcet"),
    (_inline(name=""), r"tasks\[0\]\.name"),
    (_inline(wat=1), r"tasks\[0\]\.wat: unknown key"),
    (
        {"tasks": [{**TASKS[0], "priority": 1.7}, {**TASKS[1], "priority": 0}]},
        r"tasks\[0\]\.priority",
    ),
    (
        {"tasks": [{**TASKS[0], "priority": -1}, {**TASKS[1], "priority": 0}]},
        r"tasks\[0\]\.priority",
    ),
    ({"tasks": [{**TASKS[0], "priority": 0}, TASKS[1]]}, "tasks: either all"),
    ({"tasks": [TASKS[0], TASKS[0]]}, "tasks: duplicate"),
    ({"tasks": []}, "tasks: expected a non-empty list"),
    ({"tasks": "a"}, "tasks: expected a non-empty list"),
    # No exact hyperperiod, so no default horizon; an explicit one works.
    (_inline(period=10.1), "duration: no finite default"),
    ([], "expected an object"),
]


class TestQueryRefusals:
    @pytest.mark.parametrize("request_body, field", BAD_QUERIES)
    def test_refusal_names_its_field(self, request_body, field):
        with pytest.raises(QueryError, match=rf"^{field}"):
            parse_query(request_body)

    def test_explicit_horizon_needs_no_hyperperiod(self):
        query = parse_query({**_inline(period=10.1), "duration": 500})
        assert query.duration == 500.0

    def test_in_process_build_refuses_an_infinite_horizon(self):
        taskset = get_workload("cnc").prioritized()
        with pytest.raises(QueryError, match=r"^duration: expected a finite"):
            build_query("energy", taskset, duration=math.inf)

    def test_null_top_level_fields_mean_not_given(self):
        assert parse_query(
            {"app": "cnc", "tasks": None, "duration": None, "bcet_ratio": None}
        ) == parse_query({"app": "cnc"})


class TestServiceEnvelopes:
    @pytest.fixture(scope="class")
    def service(self):
        service = ScheduleService(jobs=1)
        yield service
        service.close()

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, "1", -1, True, HUGE])
    def test_timeout_s(self, service, timeout):
        with pytest.raises(QueryError, match=r"^timeout_s"):
            service.query_dict({"kind": "rta", "app": "cnc", "timeout_s": timeout})

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"pack": "cnc", "jobs": 1.5}, "jobs: expected an integer"),
            ({"pack": "cnc", "jobs": 0}, "jobs: must be >= 1"),
            ({"pack": 5}, "pack: expected a string"),
            ({"pack": "../packs/cnc"}, "unknown scenario pack"),
            ({"scenario": "x"}, "scenario: expected an object"),
            ({"pack": "cnc", "scenario": {}}, "give exactly one"),
            ({"pack": "cnc", "execution": "fast"}, "execution: unknown key"),
            ({"scenario": _scenario(campaign={"duration": math.inf})},
             r"campaign\.duration"),
        ],
    )
    def test_scenario_envelope(self, service, body, field):
        with pytest.raises(QueryError, match=rf"^{field}"):
            service.submit_scenario(body)


#: (document, the field path its refusal must start with)
BAD_SCENARIOS = [
    (_scenario(campaign={"duration": math.inf}), r"campaign\.duration"),
    (_scenario(campaign={"duration": math.nan}), r"campaign\.duration"),
    (_scenario(campaign={"duration": HUGE}), r"campaign\.duration"),
    (_scenario(campaign={"seeds": [1.5]}), r"campaign\.seeds\[0\]"),
    (_scenario(campaign={"hyperperiods": HUGE}), r"campaign\.hyperperiods"),
    (
        _scenario(tasks=[{"name": "a", "wcet": 1.0, "period": 1e300},
                         {"name": "b", "wcet": 1.0, "period": 3e299 + 2**970}]),
        r"campaign\.hyperperiods: the periods have no finite hyperperiod",
    ),
    (
        _scenario(tasks=[{"name": "a", "wcet": 1.0, "period": HUGE}]),
        r"tasks\[0\]\.period: expected a finite number",
    ),
    (
        _scenario(tasks=[{"name": "a", "wcet": 1.0, "period": 10.0,
                          "weakly_hard": [1, 2.0]}]),
        r"tasks\[0\]\.weakly_hard\[1\]: expected an integer",
    ),
    (_scenario(faults={"sleep_guard": "yes"}), r"faults\.sleep_guard"),
    (_scenario(execution={"model": ["x"]}), r"execution\.model: expected a string"),
    (_scenario(processor={"name": []}), r"processor\.name: expected a string"),
    (_scenario(time_unit=["ms"]), "time_unit"),
    (_scenario(description=5), "description: expected a string"),
]


class TestScenarioRefusals:
    @pytest.mark.parametrize("document, field", BAD_SCENARIOS)
    def test_refusal_names_its_field(self, document, field):
        with pytest.raises(ConfigurationError, match=rf"^{field}"):
            parse_scenario(document)
