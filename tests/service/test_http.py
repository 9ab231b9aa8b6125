"""HTTP front end: routes, status codes, error mapping, metrics schema."""

from __future__ import annotations

import http.client
import json
import statistics
import time
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.service.broker import ServiceGuards
from repro.service.client import (
    ServiceClient,
    broker_send,
    run_closed_loop,
    run_open_loop,
)
from repro.service.server import ScheduleService, running_server

ENERGY = {"kind": "energy", "app": "example", "duration": 400.0, "seed": 1}


@pytest.fixture(scope="module")
def service_url():
    service = ScheduleService(jobs=1)
    with running_server(service) as server:
        yield server.url
    service.close()


@pytest.fixture(scope="module")
def client(service_url):
    return ServiceClient(service_url, timeout_s=60.0)


class TestRoutes:
    def test_health(self, client):
        status, payload = client.health()
        assert status == 200
        assert payload == {"ok": True, "status": "serving"}

    def test_schedulers_listing(self, client):
        status, payload = ServiceClient(client.url)._get("/v1/schedulers")
        assert status == 200
        assert "lpfps" in payload["schedulers"]

    def test_workloads_listing(self, client):
        status, payload = ServiceClient(client.url)._get("/v1/workloads")
        assert status == 200
        assert {"example", "ins", "cnc"} <= set(payload["workloads"])

    def test_unknown_path_is_404(self, client):
        status, payload = ServiceClient(client.url)._get("/v1/nope")
        assert status == 404
        assert payload["ok"] is False
        assert payload["error_kind"] == "bad-request"


class TestQuery:
    def test_energy_round_trip(self, client):
        status, payload = client.query(ENERGY)
        assert status == 200
        assert payload["ok"] is True
        assert payload["kind"] == "energy"
        assert payload["scheduler"] == "lpfps"
        assert payload["average_power"] > 0

    def test_repeat_is_served_from_cache(self, client):
        first = client.query(ENERGY)[1]
        second = client.query(ENERGY)[1]
        assert first == second

    def test_schedulability_kind(self, client):
        status, payload = client.query({"kind": "schedulability", "app": "cnc"})
        assert status == 200
        assert payload["schedulable"] is True

    def test_rta_kind(self, client):
        status, payload = client.query({"kind": "rta", "app": "ins"})
        assert status == 200
        assert payload["schedulable"] is True
        assert set(payload["response_times"]) == set(payload["slack"])
        assert all(value > 0 for value in payload["response_times"].values())

    def test_malformed_query_is_400(self, client):
        status, payload = client.query({"kind": "energy"})
        assert status == 400
        assert "app" in payload["error"] or "tasks" in payload["error"]
        assert payload["error_kind"] == "bad-request"

    def test_unknown_field_is_400(self, client):
        status, payload = client.query({**ENERGY, "wat": 1})
        assert status == 400
        assert "wat" in payload["error"]

    def test_non_json_body_is_400(self, service_url):
        request = urllib.request.Request(
            service_url + "/v1/query", data=b"{torn", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_empty_body_is_400(self, service_url):
        request = urllib.request.Request(
            service_url + "/v1/query", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_request_timeout_is_504(self, client):
        status, payload = client.query(
            {
                "kind": "energy",
                "app": "cnc",
                "duration": 50_000.0,
                "seed": 77,
                "timeout_s": 1e-4,
            }
        )
        assert status == 504
        assert "retry" in payload["error"]
        assert payload["error_kind"] == "timeout"

    def test_a_cell_that_fails_outside_the_library_is_500_uncached(
        self, client, monkeypatch
    ):
        from repro.experiments.runner import RunSpec

        run = RunSpec.run

        def run_unless_seed_91(spec):
            if spec.seed == 91:
                raise RuntimeError("kernel bug")
            return run(spec)

        monkeypatch.setattr(RunSpec, "run", run_unless_seed_91)
        for _ in range(2):  # never cached: the retry runs the cell again
            status, payload = client.query({**ENERGY, "seed": 91})
            assert status == 500
            assert payload["error"] == "RuntimeError: kernel bug"
            assert payload["error_kind"] == "internal"
        monkeypatch.undo()
        status, payload = client.query({**ENERGY, "seed": 91})
        assert status == 200 and payload["ok"] is True

    def test_bad_timeout_is_400(self, client):
        status, _ = client.query({**ENERGY, "timeout_s": -1})
        assert status == 400

    def test_every_error_payload_carries_a_taxonomy_kind(self, client):
        from repro.errors import ERROR_KINDS

        for query in (
            {"kind": "energy"},            # missing app
            {**ENERGY, "wat": 1},          # unknown field
            {**ENERGY, "timeout_s": -1},   # invalid knob
            {"kind": "nope"},              # unknown kind
        ):
            status, payload = client.query(query)
            assert status >= 400
            assert payload["error_kind"] in ERROR_KINDS


def _post_raw(url, path, body):
    """POST *body* verbatim: JSON's ``Infinity``/``NaN`` and integers of
    any length reach the parser exactly as a client wrote them."""
    parsed = urlparse(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


HUGE = "9" * 400

ONE_TASK = '"tasks": [{"name": "a", "wcet": 1, "period": %s%s}]'


class TestStrictNumbers:
    """A number the kernel cannot run is answered 400, naming its field,
    at once: an infinite horizon used to hold the broker's only
    dispatcher thread for good, and a 400-digit integer closed the
    connection with no answer."""

    @pytest.mark.parametrize(
        "body, field",
        [
            ('{"app": "cnc", "duration": Infinity}', "duration"),
            ('{"app": "cnc", "duration": NaN}', "duration"),
            ('{"app": "cnc", "duration": "inf"}', "duration"),
            ('{"app": "cnc", "duration": %s}' % HUGE, "duration"),
            ('{"app": "cnc", "seed": 1.5}', "seed"),
            ('{"app": "cnc", "record_trace": "false"}', "record_trace"),
            ("{%s}" % ONE_TASK % (10, ', "priority": 1.7'), "tasks[0].priority"),
            ('{"tasks": [{"name": "a", "wcet": true, "period": 10}]}',
             "tasks[0].wcet"),
        ],
    )
    def test_query_is_refused_naming_its_field(self, service_url, body, field):
        started = time.monotonic()
        status, payload = _post_raw(service_url, "/v1/query", body)
        assert time.monotonic() - started < 1.0
        assert status == 400
        assert payload["error"].startswith(field + ": ")
        assert payload["error_kind"] == "bad-request"

    @pytest.mark.parametrize("path", ["/v1/query", "/v1/scenario"])
    @pytest.mark.parametrize("body", ["5", "[1]", '"x"'])
    def test_a_body_that_is_not_an_object_is_refused(self, service_url, path, body):
        status, payload = _post_raw(service_url, path, body)
        assert status == 400
        assert payload["error"].startswith("expected an object")

    def test_a_miss_after_an_infinite_horizon_is_answered(self, service_url):
        status, _ = _post_raw(
            service_url, "/v1/query", '{"app": "cnc", "duration": Infinity}'
        )
        assert status == 400
        miss = {"kind": "energy", "app": "cnc", "duration": 50_000.0, "seed": 4242}
        status, payload = _post_raw(service_url, "/v1/query", json.dumps(miss))
        assert status == 200
        assert payload["ok"] is True

    def test_scenario_is_refused_before_any_manifest(self, tmp_path):
        head = '{"scenario": {"schema": "repro/scenario/v1", "name": "x", '
        bodies = [
            (head + ONE_TASK % (10, "") + ', "campaign": {"duration": Infinity}}}',
             "campaign.duration"),
            (head + ONE_TASK % (HUGE, "") + "}}", "tasks[0].period"),
        ]
        service = ScheduleService(jobs=1, checkpoint_dir=tmp_path)
        try:
            with running_server(service) as server:
                for body, field in bodies:
                    started = time.monotonic()
                    status, payload = _post_raw(server.url, "/v1/scenario", body)
                    assert time.monotonic() - started < 1.0
                    assert status == 400
                    assert payload["error"].startswith(field + ": ")
        finally:
            service.close()
        assert list(tmp_path.rglob("*.manifest.json")) == []


def test_kept_alive_answers_do_not_stall(service_url):
    # Headers and body leave in separate writes; with Nagle on, every
    # answer on a kept-alive connection waited ~40 ms for a delayed ACK.
    parsed = urlparse(service_url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    body = json.dumps(ENERGY)

    def ask():
        connection.request(
            "POST", "/v1/query", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200 and payload["ok"]

    try:
        ask()  # lands the answer in the cache
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            ask()
            walls.append(time.perf_counter() - t0)
    finally:
        connection.close()
    assert statistics.median(walls) < 0.020


def test_admission_overflow_returns_503_with_retry_after():
    guards = ServiceGuards(max_pending=1, batch_window_s=0.5)
    service = ScheduleService(guards=guards, jobs=1)
    with running_server(service) as server:
        client = ServiceClient(server.url, timeout_s=60.0)
        try:
            first = {"kind": "energy", "app": "example", "duration": 400.0,
                     "seed": 101, "timeout_s": 1e-4}
            assert client.query(first)[0] == 504  # occupy the pending slot
            request = urllib.request.Request(
                server.url + "/v1/query",
                data=json.dumps(
                    {"kind": "energy", "app": "example", "duration": 400.0,
                     "seed": 102}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            assert info.value.code == 503
            assert info.value.headers["Retry-After"] == "1"
            shed = json.loads(info.value.read().decode("utf-8"))
            assert shed["error_kind"] == "overload"
            # Degradation is informative: the shed answer reports how
            # deep the queue was so clients can pace themselves.
            assert shed["queue_depth"] == 1
        finally:
            service.close()


def test_cached_answers_survive_overload():
    """Guarantee-preserving degradation: only *fresh* work is shed.

    With the one pending slot occupied by a stuck simulation, a query
    whose answer is already cached must still be served 200 — cache hits
    never touch admission control.
    """
    guards = ServiceGuards(max_pending=1, batch_window_s=0.5)
    service = ScheduleService(guards=guards, jobs=1)
    with running_server(service) as server:
        client = ServiceClient(server.url, timeout_s=60.0)
        try:
            warm = {"kind": "energy", "app": "example", "duration": 400.0,
                    "seed": 201}
            status, cached = client.query(warm)
            assert status == 200
            stuck = {"kind": "energy", "app": "cnc", "duration": 50_000.0,
                     "seed": 202, "timeout_s": 1e-4}
            assert client.query(stuck)[0] == 504  # occupy the pending slot
            fresh = {"kind": "energy", "app": "example", "duration": 400.0,
                     "seed": 203}
            status, shed = client.query(fresh)
            assert status == 503
            assert shed["error_kind"] == "overload"
            status, again = client.query(warm)
            assert status == 200
            assert again == cached
        finally:
            service.close()


def test_metrics_snapshot_is_bench_metrics_v1(client):
    client.query(ENERGY)
    client.query(ENERGY)  # answered: the repeat is a hit
    status, payload = client.metrics()
    assert status == 200
    assert payload["schema"] == "bench-metrics/v1"
    assert payload["benchmark"] == "service"
    metrics = {m["name"]: m["value"] for m in payload["tests"]["service"]["metrics"]}
    assert metrics["broker.requests"] >= 1
    assert "cache.hits_memory" in metrics
    assert metrics["broker.latency_hit_count"] >= 1
    assert "cache.memory_entries" in metrics


class TestLoadGenerators:
    def test_closed_loop_over_http(self, client):
        requests = [dict(ENERGY, seed=s) for s in (1, 2)] * 3
        report = run_closed_loop(client.query, requests, concurrency=2)
        assert report.requests == 6
        assert report.ok == 6
        assert report.dropped == 0
        assert report.throughput_rps > 0
        assert len(report.latencies_s) == 6
        assert report.latency_percentiles()["p50"] > 0

    def test_open_loop_tracks_slip_and_statuses(self):
        service = ScheduleService(jobs=1)
        try:
            send = broker_send(service)
            requests = [dict(ENERGY, seed=s) for s in range(4)] * 2
            report = run_open_loop(send, requests, rate_rps=200.0, workers=8)
            assert report.requests == 8
            assert report.ok == 8
            assert report.dropped == 0
        finally:
            service.close()

    def test_open_loop_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            run_open_loop(lambda r: (200, {}), [], rate_rps=0.0)
