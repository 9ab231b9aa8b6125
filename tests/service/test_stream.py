"""Campaign streaming: hub semantics, SSE round-trip, live HTTP delivery."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import Registry
from repro.service.client import ServiceClient
from repro.service.server import ScheduleService, running_server
from repro.service.stream import (
    MAX_FINISHED,
    TERMINAL_KINDS,
    CampaignHub,
    parse_sse,
    sse_render,
)


class TestHub:
    def test_ids_are_sequential(self):
        hub = CampaignHub()
        assert hub.create({}) == "c1"
        assert hub.create({}) == "c2"

    def test_publish_sequences_from_one(self):
        hub = CampaignHub()
        cid = hub.create({"scenario": "x"})
        assert hub.publish(cid, "cell", {"cell": 0}) == 1
        assert hub.publish(cid, "cell", {"cell": 1}) == 2
        events, done = hub.events_since(cid)
        assert [e["seq"] for e in events] == [1, 2]
        assert not done

    def test_terminal_event_closes_the_campaign(self):
        hub = CampaignHub()
        cid = hub.create({})
        hub.finish(cid, {"cells": 0})
        assert hub.snapshot(cid)["state"] == "done"
        with pytest.raises(ConfigurationError, match="already done"):
            hub.publish(cid, "cell", {})

    def test_fail_marks_error_state(self):
        hub = CampaignHub()
        cid = hub.create({})
        hub.fail(cid, "boom")
        snapshot = hub.snapshot(cid)
        assert snapshot["state"] == "error"
        events, done = hub.events_since(cid)
        assert done and events[-1]["data"] == {"error": "boom"}

    def test_events_since_resumes_mid_stream(self):
        hub = CampaignHub()
        cid = hub.create({})
        for i in range(3):
            hub.publish(cid, "cell", {"cell": i})
        events, _ = hub.events_since(cid, after=2)
        assert [e["seq"] for e in events] == [3]

    def test_unknown_campaign_raises_key_error(self):
        hub = CampaignHub()
        with pytest.raises(KeyError):
            hub.snapshot("c99")
        with pytest.raises(KeyError):
            hub.publish("c99", "cell", {})

    def test_subscribe_replays_then_tails(self):
        hub = CampaignHub()
        cid = hub.create({})
        hub.publish(cid, "cell", {"cell": 0})
        received = []
        done = threading.Event()

        def follow():
            for event in hub.subscribe(cid, poll_s=0.01):
                received.append(event)
            done.set()

        thread = threading.Thread(target=follow, daemon=True)
        thread.start()
        hub.publish(cid, "cell", {"cell": 1})
        hub.finish(cid, {"ok": True})
        assert done.wait(timeout=5.0)
        assert [e["seq"] for e in received] == [1, 2, 3]
        assert received[-1]["kind"] == "done"

    def test_subscribe_idle_timeout_releases_the_subscriber(self):
        hub = CampaignHub()
        cid = hub.create({})
        events = list(hub.subscribe(cid, poll_s=0.01, idle_timeout_s=0.05))
        assert events == []  # gave up, campaign still running

    def test_finished_campaigns_are_evicted_in_order(self):
        hub = CampaignHub()
        ids = []
        for _ in range(MAX_FINISHED + 5):
            cid = hub.create({})
            hub.finish(cid)
            ids.append(cid)
        known = {entry["campaign_id"] for entry in hub.list()}
        # the oldest finished campaigns fell off; the newest survive
        assert ids[-1] in known
        assert len(known) <= MAX_FINISHED + 1

    def test_counters_land_in_the_registry(self):
        registry = Registry()
        hub = CampaignHub(obs=registry)
        cid = hub.create({})
        hub.finish(cid)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["stream.campaigns"] == 1
        assert counters["stream.events"] == 1


class TestSse:
    def test_render_parse_round_trip(self):
        events = [
            {"seq": 1, "kind": "cell", "data": {"cell": 0, "ok": True}},
            {"seq": 2, "kind": "done", "data": {"cells": 1}},
        ]
        payload = b"".join(sse_render(e) for e in events).decode("utf-8")
        parsed = list(parse_sse(iter(payload.splitlines(keepends=True))))
        assert parsed == events

    def test_parse_skips_comments_and_keepalives(self):
        lines = iter([": keep-alive\n", "id: 7\n", "event: cell\n",
                      'data: {"x": 1}\n', "\n"])
        assert list(parse_sse(lines)) == [
            {"seq": 7, "kind": "cell", "data": {"x": 1}}
        ]

    def test_terminal_kinds_are_stable(self):
        assert TERMINAL_KINDS == ("done", "error")


@pytest.fixture(scope="module")
def service_url():
    service = ScheduleService(jobs=1)
    with running_server(service) as server:
        yield server.url
    service.close()


@pytest.fixture(scope="module")
def client(service_url):
    return ServiceClient(service_url, timeout_s=60.0)


@pytest.fixture(scope="module")
def campaign(client):
    """One weakly_hard campaign submitted once and streamed to completion."""
    status, payload = client.submit_scenario({"pack": "weakly_hard"})
    assert status == 200, payload
    events = list(client.stream(payload["campaign_id"]))
    return payload, events


class TestHttpStreaming:
    def test_submission_answers_with_the_stream_path(self, campaign):
        payload, _ = campaign
        assert payload["ok"] is True
        assert payload["scenario"] == "weakly_hard"
        assert payload["cells"] == 2
        assert payload["stream"] == f"/v1/stream/{payload['campaign_id']}"
        assert len(payload["fingerprint"]) == 64

    def test_stream_delivers_every_cell_then_done(self, campaign):
        _, events = campaign
        kinds = [event["kind"] for event in events]
        assert kinds == ["cell", "cell", "done"]
        assert [event["seq"] for event in events] == [1, 2, 3]
        cells = {event["data"]["scheduler"]: event["data"] for event in events[:-1]}
        assert cells["fps"]["weakly_hard_ok"] is False
        assert cells["jcl"]["weakly_hard_ok"] is True

    def test_done_summary_carries_the_verdicts(self, campaign):
        _, events = campaign
        summary = events[-1]["data"]
        assert summary["scenario"] == "weakly_hard"
        assert summary["failed"] == 0
        assert summary["weakly_hard"] == {"fps": False, "jcl": True}

    def test_after_resumes_mid_stream(self, campaign, client):
        payload, events = campaign
        tail = list(client.stream(payload["campaign_id"], after=2))
        assert [event["seq"] for event in tail] == [3]
        assert tail[0]["data"] == events[-1]["data"]

    def test_scenarios_listing(self, client):
        status, payload = client._get("/v1/scenarios")
        assert status == 200
        assert "weakly_hard" in payload["scenarios"]

    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            list(client.stream("c404"))
        assert excinfo.value.code == 404

    def test_bad_after_is_400(self, client, campaign):
        payload, _ = campaign
        url = f"{client.url}/v1/stream/{payload['campaign_id']}?after=x"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=10.0)
        assert excinfo.value.code == 400

    def test_invalid_inline_scenario_names_the_field(self, client):
        status, payload = client.submit_scenario(
            {
                "scenario": {
                    "schema": "repro/scenario/v1",
                    "name": "bad",
                    "tasks": [{"name": "a", "wcet": 1.0, "period": 4.0, "wat": 1}],
                }
            }
        )
        assert status == 400
        assert "tasks[0].wat: unknown key" in payload["error"]

    def test_pack_and_inline_are_exclusive(self, client):
        status, payload = client.submit_scenario(
            {"pack": "cnc", "scenario": {"schema": "repro/scenario/v1"}}
        )
        assert status == 400
        assert payload["ok"] is False

    def test_execution_is_an_unknown_field(self, client):
        # The exact event loop is the only kernel path; a body still
        # asking for another one is rejected, never silently ignored.
        status, payload = client.submit_scenario(
            {"pack": "cnc", "execution": "fast"}
        )
        assert status == 400
        assert payload["error"].startswith("execution: unknown key")

    def test_metrics_schema_unchanged(self, client):
        status, payload = client.metrics()
        assert status == 200
        assert payload["schema"] == "bench-metrics/v1"
