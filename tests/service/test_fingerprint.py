"""Fingerprint properties: canonical, order- and unit-invariant.

The cache key must identify *what will run* and nothing else: hypothesis
drives task-set generation so that every representation freedom a client
has — task order, µs vs ms vs s, int vs float spellings — maps to one
fingerprint, while every change that could alter the answer maps to a
different one.  An energy query's key is its cell's journal key, which
holds the task-set name its answer reports; analytic keys do not.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.checkpoint import spec_fingerprint
from repro.service.fingerprint import canonical_payload, fingerprint
from repro.service.query import build_query, parse_query
from repro.workloads.registry import get_workload


@st.composite
def task_dicts(draw):
    """Inline task lists with distinct periods (so RM priorities are
    order-independent) and integer-µs parameters (so unit scaling is
    float-exact)."""
    periods = draw(
        st.lists(
            st.integers(min_value=2, max_value=1_000_000),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    tasks = []
    for i, period in enumerate(periods):
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        tasks.append({"name": f"t{i}", "wcet": wcet, "period": period})
    return tasks


def _request(tasks, **overrides):
    request = {"kind": "energy", "tasks": tasks, "duration": 10_000}
    request.update(overrides)
    return request


@given(tasks=task_dicts(), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_fingerprint_invariant_under_task_reordering(tasks, seed):
    """Shuffling the task list never changes the fingerprint."""
    shuffled = list(tasks)
    random.Random(seed).shuffle(shuffled)
    original = fingerprint(parse_query(_request(tasks)))
    reordered = fingerprint(parse_query(_request(shuffled)))
    assert original == reordered


@given(tasks=task_dicts())
@settings(max_examples=60, deadline=None)
def test_fingerprint_invariant_under_unit_representation(tasks):
    """µs, ms, and s spellings of the same parameters fingerprint alike.

    Parameters are integer µs, so the ms/s forms (``value / 1000`` would
    be inexact — instead the test scales the *other* way: it treats the
    drawn integers as ms/s values and spells the µs form explicitly).
    """
    in_ms = tasks
    in_us = [
        {"name": t["name"], "wcet": t["wcet"] * 1_000, "period": t["period"] * 1_000}
        for t in tasks
    ]
    in_s = [
        {
            "name": t["name"],
            "wcet": t["wcet"] / 1_000,
            "period": t["period"] / 1_000,
        }
        for t in tasks
    ]
    base = _request(in_us, duration=10_000_000)
    ms_form = _request(in_ms, time_unit="ms", duration=10_000)
    fp_us = fingerprint(parse_query(base))
    fp_ms = fingerprint(parse_query(ms_form))
    assert fp_us == fp_ms
    # value/1000 * 1e6 == value * 1000 exactly only when the division is
    # exact; restrict the seconds form to that subset.
    if all(
        t["wcet"] / 1_000 * 1_000_000 == t["wcet"] * 1_000
        and t["period"] / 1_000 * 1_000_000 == t["period"] * 1_000
        for t in tasks
    ):
        s_form = _request(in_s, time_unit="s", duration=10.0)
        assert fp_us == fingerprint(parse_query(s_form))


@given(tasks=task_dicts())
@settings(max_examples=40, deadline=None)
def test_fingerprint_invariant_under_numeric_spelling(tasks):
    """``2000`` (int) and ``2000.0`` (float) are the same parameter."""
    as_floats = [
        {"name": t["name"], "wcet": float(t["wcet"]), "period": float(t["period"])}
        for t in tasks
    ]
    assert fingerprint(parse_query(_request(tasks))) == fingerprint(
        parse_query(_request(as_floats))
    )


@given(tasks=task_dicts())
@settings(max_examples=40, deadline=None)
def test_fingerprint_changes_with_parameters(tasks):
    """Perturbing one WCET changes the fingerprint."""
    perturbed = [dict(t) for t in tasks]
    perturbed[0]["wcet"] = perturbed[0]["wcet"] + perturbed[0]["period"]
    if perturbed[0]["wcet"] > perturbed[0]["period"]:
        perturbed[0]["period"] = perturbed[0]["wcet"]
        # keep the period set collision-free for RM determinism
        if any(
            t["period"] == perturbed[0]["period"] for t in perturbed[1:]
        ):
            return
    assert fingerprint(parse_query(_request(tasks))) != fingerprint(
        parse_query(_request(perturbed))
    )


def test_registry_name_and_inline_tasks_key_alike_only_for_analytic_kinds():
    """An inline copy of INS is answered as task set ``inline``, not
    ``ins``: the energy keys (journal keys) differ; the analytic keys,
    whose answers never name the task set, match."""
    inline_tasks = [
        {
            "name": t.name,
            "wcet": t.wcet,
            "period": t.period,
            "deadline": t.deadline,
            "phase": t.phase,
        }
        for t in get_workload("ins").taskset
    ]

    def pair(kind):
        request = {"kind": kind, "duration": 50_000, "bcet_ratio": 0.5}
        return (
            parse_query({**request, "app": "ins"}),
            parse_query({**request, "tasks": inline_tasks}),
        )

    named, inline = pair("energy")
    for query in (named, inline):
        assert fingerprint(query) == spec_fingerprint(query.to_runspec())
    assert fingerprint(named) != fingerprint(inline)
    for kind in ("schedulability", "rta"):
        named, inline = pair(kind)
        assert fingerprint(named) == fingerprint(inline)


def test_analytic_kinds_canonicalise_simulation_knobs_away():
    """Scheduler/seed/horizon cannot change an RTA answer, so
    schedulability queries differing only there share one cache line."""
    base = {"kind": "schedulability", "app": "cnc"}
    a = parse_query({**base, "scheduler": "lpfps", "seed": 1})
    b = parse_query({**base, "scheduler": "fps", "seed": 99, "duration": 123.0})
    assert fingerprint(a) == fingerprint(b)


def test_energy_knobs_are_significant():
    """For simulation-backed queries, scheduler/seed/horizon all matter."""
    base = {"kind": "energy", "app": "cnc", "duration": 9_600}
    reference = fingerprint(parse_query(base))
    assert fingerprint(parse_query({**base, "scheduler": "fps"})) != reference
    assert fingerprint(parse_query({**base, "seed": 2})) != reference
    assert fingerprint(parse_query({**base, "duration": 19_200})) != reference
    assert fingerprint(parse_query({**base, "execution": "wcet"})) != reference
    assert fingerprint(parse_query({**base, "record_trace": True})) != reference


def test_canonical_payload_is_stable_and_sorted():
    """The payload lists tasks by name and renders floats via repr."""
    query = build_query("energy", get_workload("cnc").prioritized(), duration=9_600)
    payload = canonical_payload(query)
    names = [t["name"] for t in payload["tasks"]]
    assert names == sorted(names)
    assert payload["duration"] == "9600.0"
    assert fingerprint(query) == fingerprint(query)
