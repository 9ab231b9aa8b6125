"""Cache-hit bit-identity against the golden trace fixtures.

The service's core contract is that a cached answer is indistinguishable
from a fresh simulation.  This suite pins it against the strongest
oracle the repo has: for every registry scheduler x golden workload
cell, the service is queried twice — a cache miss (fresh simulation via
the broker) and a cache hit — and both payloads must carry the exact
trace digest stored in ``tests/golden/golden_traces.json``.  Golden
cells that are deterministic refusals (the YDS oracle on INS/CNC) must
come back as the pinned ``TypeName: message`` error payload, cached the
same way.

A registry workload and an inline copy of its tasks are different
questions: the answer names the task set.  Each must get its own answer
on every path — fresh, deduped, from memory and from disk.

Marked ``golden`` like the trace suite: slow, run in its own CI job.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.checkpoint import spec_fingerprint
from repro.schedulers.registry import available_schedulers
from repro.service.broker import ServiceGuards
from repro.service.fingerprint import fingerprint
from repro.service.query import parse_query
from repro.service.results import execute_query
from repro.service.server import ScheduleService
from repro.workloads.registry import get_workload

from ..golden.capture import (
    FIXTURE_PATH,
    GOLDEN_BCET_RATIO,
    GOLDEN_SEED,
    GOLDEN_WORKLOADS,
    case_id,
)

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module")
def fixtures():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    instance = ScheduleService(
        cache_dir=tmp_path_factory.mktemp("service-cache"), jobs=1
    )
    yield instance
    instance.close()


def _golden_request(scheduler: str, workload: str, duration: float) -> dict:
    return {
        "kind": "energy",
        "app": workload,
        "scheduler": scheduler,
        "duration": duration,
        "seed": GOLDEN_SEED,
        "bcet_ratio": GOLDEN_BCET_RATIO,
        "execution": "gaussian",
        "record_trace": True,
    }


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize(
    "workload,duration", GOLDEN_WORKLOADS, ids=[w for w, _ in GOLDEN_WORKLOADS]
)
def test_cache_hit_equals_fresh_golden_digest(
    service, fixtures, scheduler, workload, duration
):
    query = parse_query(_golden_request(scheduler, workload, duration))
    golden = fixtures[case_id(scheduler, workload)]

    miss = service.query(query, timeout=300)
    hit = service.query(query, timeout=300)

    assert hit == miss, "a cache hit must be bit-identical to the fresh run"
    if "error" in golden:
        assert miss["ok"] is False
        assert miss["error"] == golden["error"]
    else:
        assert miss["ok"] is True
        assert miss["digest"] == golden


def test_disk_tier_round_trip_preserves_bit_identity(service, fixtures, tmp_path):
    """A payload reloaded from a *fresh* process's disk tier still
    matches the golden digest — JSON round-tripping loses nothing."""
    scheduler, (workload, duration) = "lpfps", GOLDEN_WORKLOADS[0]
    query = parse_query(_golden_request(scheduler, workload, duration))

    first = ScheduleService(cache_dir=tmp_path / "cache", jobs=1)
    try:
        fresh = first.query(query, timeout=300)
    finally:
        first.close()

    second = ScheduleService(cache_dir=tmp_path / "cache", jobs=1)
    try:
        reloaded = second.query(query, timeout=300)
        assert second.obs.counter_value("cache.hits_disk") == 1, (
            "must come from the disk tier"
        )
    finally:
        second.close()

    assert reloaded == fresh
    assert reloaded["digest"] == fixtures[case_id(scheduler, workload)]


def _named_and_inline(kind: str):
    """``app: cnc`` and an inline copy of its tasks, as one *kind*."""
    request = {"kind": kind, "duration": 9_600.0, "seed": GOLDEN_SEED}
    if kind == "energy":
        request["record_trace"] = True
    tasks = [
        {"name": t.name, "wcet": t.wcet, "period": t.period,
         "deadline": t.deadline, "phase": t.phase}
        for t in get_workload("cnc").taskset
    ]
    return (
        parse_query({**request, "app": "cnc"}),
        parse_query({**request, "tasks": tasks}),
    )


def test_registry_name_and_inline_copy_each_get_their_own_answer(tmp_path):
    pair = _named_and_inline("energy")
    references = [execute_query(query) for query in pair]
    assert [r["taskset"] for r in references] == ["cnc", "inline"]
    for query in pair:
        assert fingerprint(query) == spec_fingerprint(query.to_runspec())
    assert len({fingerprint(query) for query in pair}) == 2
    analytic = _named_and_inline("rta")
    assert fingerprint(analytic[0]) == fingerprint(analytic[1])

    guards = ServiceGuards(batch_window_s=0.5)
    first = ScheduleService(cache_dir=tmp_path / "cache", jobs=1, guards=guards)
    try:
        # Fresh and deduped: both queries twice, in one batch window.
        submissions = [first.broker.submit(query) for query in (*pair, *pair)]
        assert [s.path for s in submissions] == ["miss", "miss", "dedup", "dedup"]
        answers = [s.future.result(timeout=300) for s in submissions]
        assert answers == references * 2
        # From memory.
        assert [first.broker.submit(query).path for query in pair] == ["hit", "hit"]
        assert [first.query(query, timeout=300) for query in pair] == references
    finally:
        first.close()

    second = ScheduleService(cache_dir=tmp_path / "cache", jobs=1)
    try:
        assert [second.query(query, timeout=300) for query in pair] == references
        assert second.obs.counter_value("cache.hits_disk") == 2
    finally:
        second.close()
