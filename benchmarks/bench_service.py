"""EXP-S benchmark: the scheduling-as-a-service layer under load.

Three measurements, all against the real stack (parse → fingerprint →
cache → broker → kernel), emitted in the bench-metrics/v1 schema:

* **hit/miss latency** — end-to-end HTTP percentiles for cold (cache
  miss, fresh simulation) and warm (content-addressed hit) queries.
* **batched vs sequential throughput** — the acceptance criterion: a
  repeated-traffic sweep (every unique cell requested ``REPEAT`` times,
  the regime the cache + dedupe + micro-batching stack exists for) must
  run at least 5x faster through the broker than sequential
  per-request dispatch (``execute_query`` fresh for every request —
  exactly what a service without the caching layer would do).  On this
  single-core container the speedup comes from answering each unique
  cell once, not from parallel workers, so the ratio is honest on any
  core count.
* **open-loop load** — requests offered on a fixed schedule against a
  service with admission control *enabled*; the run must complete with
  zero dropped requests (no sheds, no timeouts, no failures).
"""

from __future__ import annotations

import random
import time

from repro.service.broker import ServiceGuards
from repro.service.client import (
    ServiceClient,
    broker_send,
    run_closed_loop,
    run_open_loop,
)
from repro.service.query import parse_query
from repro.service.results import execute_query
from repro.service.server import ScheduleService, running_server

#: Sweep configuration: fast-simulating unique cells on the DAC'99
#: example workload, each requested REPEAT times in shuffled order.
SCHEDULERS = ("fps", "lpfps", "lpfps-opt", "lpfps-nodvs", "edf", "ccedf")
SEEDS = (1, 2)
DURATION = 10_000.0
REPEAT = 8


def unique_requests() -> list:
    return [
        {
            "kind": "energy",
            "app": "example",
            "scheduler": scheduler,
            "seed": seed,
            "duration": DURATION,
            "bcet_ratio": 0.5,
        }
        for scheduler in SCHEDULERS
        for seed in SEEDS
    ]


def sweep_requests() -> list:
    requests = unique_requests() * REPEAT
    random.Random(7).shuffle(requests)
    return requests


def test_hit_miss_latency_over_http(artifact, metrics_out):
    """End-to-end HTTP latency percentiles, cold cache vs warm cache."""
    service = ScheduleService(jobs=1)
    with running_server(service) as server:
        client = ServiceClient(server.url, timeout_s=120.0)
        cold = run_closed_loop(client.query, unique_requests(), concurrency=1)
        warm = run_closed_loop(
            client.query, unique_requests() * 4, concurrency=1
        )
    service.close()

    assert cold.ok == cold.requests
    assert warm.ok == warm.requests
    cold_p = cold.latency_percentiles()
    warm_p = warm.latency_percentiles()

    lines = [
        "EXP-S service latency over HTTP (single client, example workload)",
        f"{'path':<18} {'n':>4} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}",
    ]
    for label, report, pct in (
        ("miss (cold)", cold, cold_p),
        ("hit (warm)", warm, warm_p),
    ):
        lines.append(
            f"{label:<18} {report.requests:>4} "
            f"{pct['p50'] * 1e3:>9.3f} {pct['p95'] * 1e3:>9.3f} "
            f"{pct['p99'] * 1e3:>9.3f}"
        )
    artifact("service_latency", "\n".join(lines))

    for prefix, pct in (("miss", cold_p), ("hit", warm_p)):
        for label, value in pct.items():
            metrics_out(f"{prefix}_latency_{label}_ms", value * 1e3, "ms")
    # A hit must be far cheaper than a fresh simulation end-to-end.
    assert warm_p["p50"] < cold_p["p50"]


def test_batched_broker_vs_sequential_dispatch(artifact, metrics_out):
    """Acceptance criterion: >=5x on the repeated-traffic sweep."""
    requests = sweep_requests()

    started = time.perf_counter()
    for request in requests:
        payload = execute_query(parse_query(request))
        assert payload["ok"] is True
    sequential_wall = time.perf_counter() - started

    service = ScheduleService(jobs=1)
    try:
        report = run_closed_loop(broker_send(service), requests, concurrency=8)
    finally:
        service.close()

    counter = service.obs.counter_value
    assert report.ok == report.requests == len(requests)
    assert counter("broker.dispatched") == len(unique_requests()), (
        "every unique cell simulates exactly once; repeats are served by "
        "the cache or in-flight dedupe"
    )
    speedup = sequential_wall / report.wall_s

    text = "\n".join(
        [
            "EXP-S batched broker vs sequential per-request dispatch",
            f"sweep: {len(unique_requests())} unique cells x {REPEAT} "
            f"requests each = {len(requests)} requests",
            f"{'sequential (fresh every request)':<38}"
            f" {sequential_wall:>8.3f} s",
            f"{'broker (cache+dedupe+micro-batch)':<38}"
            f" {report.wall_s:>8.3f} s",
            f"{'speedup':<38} {speedup:>8.2f} x",
            f"dispatched={counter('broker.dispatched')} "
            f"cache_hits={counter('cache.hits_memory')} "
            f"dedup_hits={counter('broker.dedup_hits')} "
            f"batches={counter('broker.batches')}",
        ]
    )
    artifact("service_throughput", text)

    metrics_out("sequential_wall_s", sequential_wall, "s")
    metrics_out("broker_wall_s", report.wall_s, "s")
    metrics_out("broker_speedup", speedup, "x")
    metrics_out("unique_cells", len(unique_requests()))
    metrics_out("requests", len(requests))
    metrics_out("batches", counter("broker.batches"))
    assert speedup >= 5.0, (
        f"batched broker must beat sequential dispatch >=5x on repeated "
        f"traffic, got {speedup:.2f}x"
    )


def test_open_loop_zero_drops_under_admission_control(artifact, metrics_out):
    """Offered-load run: admission control on, nothing dropped."""
    guards = ServiceGuards(max_pending=32, request_timeout_s=60.0)
    service = ScheduleService(guards=guards, jobs=1)
    try:
        send = broker_send(service)
        requests = sweep_requests()
        report = run_open_loop(send, requests, rate_rps=150.0, workers=16)
    finally:
        service.close()

    text = "\n".join(
        [
            "EXP-S open-loop load (150 req/s offered, admission control on)",
            f"requests={report.requests} ok={report.ok} shed={report.shed} "
            f"timeouts={report.timeouts} failures={report.failures}",
            f"wall={report.wall_s:.3f} s "
            f"throughput={report.throughput_rps:.1f} req/s "
            f"max_slip={report.max_slip_s * 1e3:.1f} ms",
            f"p50={report.latency_percentiles()['p50'] * 1e3:.3f} ms "
            f"p99={report.latency_percentiles()['p99'] * 1e3:.3f} ms",
        ]
    )
    artifact("service_open_loop", text)

    metrics_out("open_loop_requests", report.requests)
    metrics_out("open_loop_dropped", report.dropped)
    metrics_out("open_loop_throughput_rps", report.throughput_rps, "req/s")
    metrics_out("open_loop_max_slip_ms", report.max_slip_s * 1e3, "ms")
    metrics_out(
        "open_loop_p99_ms", report.latency_percentiles()["p99"] * 1e3, "ms"
    )
    assert report.requests == len(requests)
    assert report.dropped == 0, (
        f"open-loop run must drop nothing: shed={report.shed} "
        f"timeouts={report.timeouts} failures={report.failures}"
    )
    assert service.obs.counter_value("broker.shed") == 0