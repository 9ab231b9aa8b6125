"""Durable campaigns: store, hub replay, idempotent HTTP, 410 + resume.

The tentpole contract of ISSUE 10, bottom-up: the on-disk
:class:`CampaignStore` persists exactly what was published (and only
intact prefixes of it), the hub replays it after a "restart" (a fresh
hub over the same directory), re-submitting an identical scenario is
idempotent, and an evicted campaign answers 410 with everything a
client needs to resume.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.obs.registry import Registry
from repro.service.client import ServiceClient
from repro.service.durability import CampaignStore, campaign_key
from repro.service.fleet import FleetClient
from repro.service.server import ScheduleService, running_server
from repro.service.stream import CampaignEvicted, CampaignHub


class TestCampaignKey:
    def test_is_deterministic_and_content_addressed(self):
        assert campaign_key("f" * 64) == campaign_key("f" * 64)
        assert campaign_key("f" * 64) != campaign_key("e" * 64)

    def test_shape_is_c_plus_16_hex(self):
        key = campaign_key("f" * 64)
        assert key.startswith("c") and len(key) == 17
        int(key[1:], 16)  # hex or raise


class TestCampaignStore:
    def test_manifest_round_trips(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.write_manifest("c1", {"meta": {"scenario": "x"}})
        manifest = store.load_manifest("c1")
        assert manifest["meta"] == {"scenario": "x"}
        assert manifest["campaign_id"] == "c1"
        assert list(store.list_manifests()) == ["c1"]

    def test_missing_manifest_is_none(self, tmp_path):
        assert CampaignStore(tmp_path).load_manifest("c404") is None

    def test_events_append_and_load_in_order(self, tmp_path):
        store = CampaignStore(tmp_path)
        for seq in (1, 2, 3):
            assert store.append_event(
                "c1", {"seq": seq, "kind": "cell", "data": {"cell": seq - 1}}
            )
        store.close()
        events = store.load_events("c1")
        assert [event["seq"] for event in events] == [1, 2, 3]
        assert events[0]["data"] == {"cell": 0}

    def test_torn_suffix_is_ignored_not_replayed(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_event("c1", {"seq": 1, "kind": "cell", "data": {}})
        store.append_event("c1", {"seq": 2, "kind": "done", "data": {}})
        store.close()
        with open(store.events_path("c1"), "ab") as handle:
            handle.write(b'{"v": 1, "seq": 3, "kind": "cel')  # torn write
        assert [e["seq"] for e in store.load_events("c1")] == [1, 2]

    def test_corrupt_interior_truncates_to_intact_prefix(self, tmp_path):
        store = CampaignStore(tmp_path)
        for seq in (1, 2, 3):
            store.append_event("c1", {"seq": seq, "kind": "cell", "data": {}})
        store.close()
        path = store.events_path("c1")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]  # flip a byte
        path.write_bytes(b"".join(lines))
        # Prefix-exact read: everything after the first bad record is
        # suspect (its durability ordering is gone), so only seq 1 loads.
        assert [e["seq"] for e in store.load_events("c1")] == [1]

    @pytest.mark.parametrize("keep", [0.0, 0.3, 0.5, 0.8, 0.99])
    def test_torn_batch_reloads_as_its_gapless_intact_prefix(self, tmp_path, keep):
        store = CampaignStore(tmp_path)
        assert store.append_events(
            "c1", [{"seq": 1, "kind": "cell", "data": {"cell": 0}}]
        )
        batch = [
            {"seq": seq, "kind": "cell", "data": {"cell": seq - 1}}
            for seq in (2, 3, 4, 5)
        ]
        assert store.append_events("c1", batch)
        store.close()
        path = store.events_path("c1")
        data = path.read_bytes()
        first = data.index(b"\n") + 1
        # A crash mid-batch: the batch's bytes stop anywhere.
        cut = first + int(keep * (len(data) - first))
        path.write_bytes(data[:cut])
        whole = data[first:cut].count(b"\n")
        assert [e["seq"] for e in store.load_events("c1")] == list(
            range(1, whole + 2)
        )

    def test_scrub_repair_truncates_event_logs(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.write_manifest("c1", {"meta": {}})
        store.append_event("c1", {"seq": 1, "kind": "cell", "data": {}})
        store.close()
        with open(store.events_path("c1"), "ab") as handle:
            handle.write(b"garbage\n")
        obs = Registry()
        report = store.scrub(repair=True, obs=obs)
        assert report["events_corrupt"] == 1
        assert report["logs_truncated"] == 1
        assert obs.counter_value("cache.scrub_events_truncated") == 1
        # The log is now fully intact: a re-scrub finds nothing.
        assert store.scrub()["events_corrupt"] == 0
        assert [e["seq"] for e in store.load_events("c1")] == [1]

    def test_scrub_repair_quarantines_corrupt_manifest(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.write_manifest("c1", {"meta": {}})
        store.manifest_path("c1").write_text("{not json")
        report = store.scrub(repair=True)
        assert report["manifests_corrupt"] == 1
        assert store.load_manifest("c1") is None
        assert store.scrub()["manifests"] == 0

    def test_repeated_manifest_quarantine_keeps_every_copy(self, tmp_path):
        store = CampaignStore(tmp_path)
        rots = ["{not json", "{still not json"]
        for rot in rots:
            assert store.write_manifest("c1", {"meta": {}})
            store.manifest_path("c1").write_text(rot)
            assert store.scrub(repair=True)["manifests_corrupt"] == 1
        # Quarantine is evidence: the second rot must not overwrite
        # the first one's copy.
        kept = sorted(
            path.read_text()
            for path in store.campaigns_dir.rglob("*")
            if path.is_file()
        )
        assert kept == sorted(rots)

    def test_scrub_survives_an_unreadable_event_log(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_event("cgood", {"seq": 1, "kind": "done", "data": {}})
        store.close()
        # An events "file" that cannot be read (here: a directory) must
        # become a report problem, never an exception out of scrub —
        # one bad file must not stop the server from starting.
        (store.campaigns_dir / "cbad.events.jsonl").mkdir()
        report = store.scrub(repair=True)
        assert report["event_logs"] == 2
        assert any(
            problem["reason"].startswith("unreadable:")
            for problem in report["problems"]
        )
        assert [e["seq"] for e in store.load_events("cgood")] == [1]
        # And the service constructor (which scrubs) starts cleanly too.
        ScheduleService(jobs=1, checkpoint_dir=tmp_path).close()

    def test_cache_verify_fails_on_an_unreadable_event_log(self, tmp_path, capsys):
        # Like an unreadable cache entry, a log the scrub cannot read is
        # corruption: exit 1 unless --repair was asked for.
        from repro.cli import main

        (tmp_path / "campaigns" / "cabc.events.jsonl").mkdir(parents=True)
        verify = ["cache", "verify", "--checkpoint", str(tmp_path)]
        assert main(verify) == 1
        out = capsys.readouterr().out
        assert "unreadable:IsADirectoryError" in out
        assert "1 unreadable" in out
        assert main(verify + ["--repair"]) == 0


class TestCrossProcessLeases:
    def test_lease_is_exclusive_across_stores(self, tmp_path):
        # Two stores over one directory behave like two fleet replicas:
        # flock conflicts even between descriptors in one process.
        owner, sibling = CampaignStore(tmp_path), CampaignStore(tmp_path)
        assert owner.acquire_lease("c1")
        assert owner.acquire_lease("c1")  # idempotent for the holder
        assert owner.owns_lease("c1")
        assert not sibling.acquire_lease("c1")
        owner.release_lease("c1")
        assert not owner.owns_lease("c1")
        assert sibling.acquire_lease("c1")
        sibling.release_lease("c1")

    def test_scrub_repair_never_rewrites_a_leased_log(self, tmp_path):
        # The sibling-restart hazard from the fleet deployment: replica
        # A is live (lease held, append handle open) while replica B
        # restarts and scrubs.  B must not atomically rewrite A's log —
        # A's later fsyncs would land on an unlinked inode.
        owner = CampaignStore(tmp_path)
        owner.append_event("c1", {"seq": 1, "kind": "cell", "data": {}})
        assert owner.acquire_lease("c1")
        with open(owner.events_path("c1"), "ab") as handle:
            handle.write(b"garbage\n")
        before = owner.events_path("c1").read_bytes()

        sibling = CampaignStore(tmp_path)
        report = sibling.scrub(repair=True)
        assert report["events_corrupt"] == 1
        assert report["logs_truncated"] == 0
        assert any(
            problem["reason"] == "repair-skipped:lease-held"
            for problem in report["problems"]
        )
        assert owner.events_path("c1").read_bytes() == before
        owner.close()
        owner.release_lease("c1")
        # Once the owner is gone the torn line is repairable as usual.
        report = sibling.scrub(repair=True)
        assert report["logs_truncated"] == 1
        assert [e["seq"] for e in sibling.load_events("c1")] == [1]

    def test_submit_attaches_when_a_sibling_owns_the_campaign(self, tmp_path):
        from repro.scenarios import load_pack

        scenario = load_pack("weakly_hard")
        cid = campaign_key(scenario.fingerprint())
        sibling = CampaignStore(tmp_path)
        assert sibling.acquire_lease(cid)

        service = ScheduleService(jobs=1, checkpoint_dir=tmp_path)
        try:
            payload = service.submit_scenario({"pack": "weakly_hard"})
            # Never a second writer: the submission attaches instead of
            # spawning a runner that would interleave seq numbers with
            # the sibling's.
            assert payload["campaign_id"] == cid
            assert payload["state"] == "running"
            assert payload["attached"] is True
            assert not service._active_campaigns
            # Lease released (sibling "crashed"): the same submission
            # now starts the campaign here.
            sibling.release_lease(cid)
            payload = service.submit_scenario({"pack": "weakly_hard"})
            assert payload["state"] == "running"
            assert "attached" not in payload
            events = list(service.campaigns.subscribe(cid))
            assert events[-1]["kind"] == "done"
        finally:
            service.close()

    def test_resume_campaigns_skips_a_sibling_owned_orphan(self, tmp_path):
        from repro.scenarios import load_pack

        scenario = load_pack("weakly_hard")
        cid = campaign_key(scenario.fingerprint())
        seed = CampaignStore(tmp_path)
        seed.write_manifest(
            cid,
            {
                "meta": {
                    "scenario": scenario.name,
                    "fingerprint": scenario.fingerprint(),
                    "cells": 2,
                    "execution": "exact",
                },
                "scenario_document": scenario.canonical_document(),
                "fingerprint": scenario.fingerprint(),
                "jobs": 1,
                "execution": "exact",
                "created_s": time.time(),
            },
        )
        seed.append_event(cid, {"seq": 1, "kind": "cell", "data": {"cell": 0}})
        seed.close()
        assert seed.acquire_lease(cid)  # the live sibling running it

        service = ScheduleService(jobs=1, checkpoint_dir=tmp_path)
        try:
            assert service.resume_campaigns() == []
            seed.release_lease(cid)  # the sibling dies
            assert service.resume_campaigns() == [cid]
            events = list(service.campaigns.subscribe(cid))
            assert events[-1]["kind"] == "done"
        finally:
            service.close()


class TestAdoptionRepair:
    def test_repair_log_truncates_a_torn_tail(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_event("c1", {"seq": 1, "kind": "cell", "data": {}})
        store.close()
        with open(store.events_path("c1"), "ab") as handle:
            handle.write(b'{"v": 1, "seq": 2, "kind": "cel')  # torn
        intact = store.repair_log("c1")
        assert [e["seq"] for e in intact] == [1]
        # The tail is gone from disk: a later append stays readable.
        assert store.append_event("c1", {"seq": 2, "kind": "done", "data": {}})
        store.close()
        assert [e["seq"] for e in store.load_events("c1")] == [1, 2]

    def test_refresh_folds_the_durable_tail_into_a_stale_copy(self, tmp_path):
        # The live fleet hand-off: replica B replayed the log early, the
        # owner A kept appending durably, A died, B adopts.  B's next
        # seq must continue the *disk* log, not its stale replay.
        owner, _ = _durable_hub(tmp_path)
        owner.store.write_manifest("cabc", {"meta": {}})
        cid = owner.create({}, campaign_id="cabc")
        owner.publish(cid, "cell", {"cell": 0})

        stale, obs = _durable_hub(tmp_path)
        assert stale.load_persisted() == [cid]  # fast copy: 1 event
        owner.publish(cid, "cell", {"cell": 1})
        owner.publish(cid, "cell", {"cell": 2})  # disk: 3 events

        stale.refresh(cid)
        events, _ = stale.events_since(cid)
        assert [e["data"]["cell"] for e in events] == [0, 1, 2]
        assert obs.counter_value("stream.campaigns_refreshed") == 1
        # Appends now continue gaplessly after the durable tail.
        assert stale.publish(cid, "cell", {"cell": 3}) == 4
        restarted, _ = _durable_hub(tmp_path)
        restarted.load_persisted()
        replayed, _ = restarted.events_since(cid)
        assert [e["seq"] for e in replayed] == [1, 2, 3, 4]


class TestDurabilityDegraded:
    def test_failed_append_fails_the_campaign_loudly(self, tmp_path):
        # ENOSPC mid-campaign: the cell event must never become visible
        # (durable-before-visible), the campaign must end in a terminal
        # error, and the runner must be told to stop.
        hub, obs = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0})
        hub.store.append_events = lambda *a, **k: False  # disk says no
        with pytest.raises(ServiceError, match="durability lost"):
            hub.publish(cid, "cell", {"cell": 1})
        events, done = hub.events_since(cid)
        assert done is True
        assert [e["kind"] for e in events] == ["cell", "error"]
        assert events[0]["data"]["cell"] == 0  # the lost cell never shown
        assert hub.snapshot(cid)["state"] == "error"
        assert hub.snapshot(cid)["meta"]["durable"] is False
        assert obs.counter_value("stream.durability_degraded") == 1

    def test_rejected_batch_shows_none_of_its_events(self, tmp_path):
        hub, obs = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0})
        hub.store.append_events = lambda *a, **k: False  # disk says no
        with pytest.raises(ServiceError, match="durability lost"):
            hub.publish_many(
                cid, [("cell", {"cell": 1}), ("cell", {"cell": 2})]
            )
        events, done = hub.events_since(cid)
        assert done is True
        assert [e["kind"] for e in events] == ["cell", "error"]
        assert [e["data"].get("cell") for e in events] == [0, None]
        assert obs.counter_value("stream.durability_degraded") == 1

    def test_failed_terminal_append_stays_visible_but_marked(self, tmp_path):
        hub, obs = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0})
        hub.store.append_events = lambda *a, **k: False
        hub.finish(cid, {"failed": 0})  # no raise: clients need closure
        assert hub.snapshot(cid)["state"] == "done"
        assert hub.snapshot(cid)["meta"]["durable"] is False
        assert obs.counter_value("stream.durability_degraded") == 1


class TestCampaignGc:
    @staticmethod
    def _finished(store, campaign_id):
        store.write_manifest(campaign_id, {"meta": {}})
        store.append_event(
            campaign_id, {"seq": 1, "kind": "cell", "data": {"cell": 0}}
        )
        store.append_event(campaign_id, {"seq": 2, "kind": "done", "data": {}})
        store.close(campaign_id)

    def test_gc_collects_only_old_terminal_campaigns(self, tmp_path):
        store = CampaignStore(tmp_path)
        self._finished(store, "cold")
        store.write_manifest("crun", {"meta": {}})
        store.append_event(
            "crun", {"seq": 1, "kind": "cell", "data": {"cell": 0}}
        )
        store.close()
        report = store.gc(retention_s=3600.0, now=time.time() + 7200.0)
        assert report["removed"] == 1
        assert report["kept"] == 1
        assert not store.events_path("cold").exists()
        assert not store.manifest_path("cold").exists()
        assert store.load_manifest("crun") is not None
        # Idempotent: a second pass finds nothing else to do.
        again = store.gc(retention_s=3600.0, now=time.time() + 7200.0)
        assert again["removed"] == 0

    def test_gc_keeps_recent_terminal_campaigns(self, tmp_path):
        store = CampaignStore(tmp_path)
        self._finished(store, "cnew")
        report = store.gc(retention_s=3600.0)
        assert report["removed"] == 0
        assert store.load_manifest("cnew") is not None

    def test_gc_respects_a_live_lease(self, tmp_path):
        owner = CampaignStore(tmp_path)
        self._finished(owner, "cheld")
        assert owner.acquire_lease("cheld")
        sibling = CampaignStore(tmp_path)
        report = sibling.gc(retention_s=0.0, now=time.time() + 10.0)
        assert report["removed"] == 0
        owner.release_lease("cheld")
        report = sibling.gc(retention_s=0.0, now=time.time() + 10.0)
        assert report["removed"] == 1

    def test_reap_garbage_collects_the_disk_copy(self, tmp_path):
        hub, obs = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0})
        hub.finish(cid)
        # Backdate the log past the store's retention window, as a
        # long-lived deployment would see.
        stale = time.time() - (8 * 86_400.0)
        os.utime(hub.store.events_path(cid), (stale, stale))
        hub.reap()
        assert not hub.store.events_path(cid).exists()
        assert not hub.store.manifest_path(cid).exists()
        assert obs.counter_value("cache.gc_campaigns") == 1

    def test_load_persisted_skips_stale_finished_campaigns(self, tmp_path):
        hub, _ = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0})
        hub.finish(cid)
        stale = time.time() - 7200.0  # past the 1h in-memory TTL
        os.utime(hub.store.events_path(cid), (stale, stale))

        reborn, obs = _durable_hub(tmp_path)
        # Not replayed into memory at startup (bounded restart cost)...
        assert reborn.load_persisted() == []
        # ...but still transparently readable on demand from disk.
        events, done = reborn.events_since(cid)
        assert done is True
        assert [e["seq"] for e in events] == [1, 2]
        assert obs.counter_value("stream.campaigns_reloaded") == 1


def _durable_hub(tmp_path, **kwargs):
    obs = Registry()
    hub = CampaignHub(obs=obs, store=CampaignStore(tmp_path), **kwargs)
    return hub, obs


class TestDurableHub:
    def test_restart_replays_events_and_state(self, tmp_path):
        hub, _ = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {"scenario": "x"}})
        cid = hub.create({"scenario": "x"}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0, "ok": True})
        hub.publish(cid, "cell", {"cell": 1, "ok": True})
        hub.finish(cid, {"failed": 0})

        reborn, obs = _durable_hub(tmp_path)
        assert reborn.load_persisted() == ["cabc"]
        events, done = reborn.events_since("cabc")
        assert done is True
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert events[-1]["kind"] == "done"
        assert reborn.snapshot("cabc")["state"] == "done"
        assert obs.counter_value("stream.campaigns_recovered") == 1

    def test_duplicate_cell_events_are_dropped(self, tmp_path):
        hub, obs = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        first = hub.publish(cid, "cell", {"cell": 0, "ok": True})
        again = hub.publish(cid, "cell", {"cell": 0, "ok": True})
        assert again == first  # original seq, no new event
        events, _ = hub.events_since(cid)
        assert len(events) == 1
        assert obs.counter_value("stream.duplicates_skipped") == 1

    def test_publish_many_is_one_fsynced_batch(self, tmp_path, monkeypatch):
        hub, _ = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
        seqs = hub.publish_many(
            cid,
            [("cell", {"cell": 0}), ("cell", {"cell": 1}), ("cell", {"cell": 0})],
        )
        assert seqs == [1, 2, 1]  # a repeat within the batch is a duplicate
        assert len(fsyncs) == 1
        assert [e["seq"] for e in hub.store.load_events(cid)] == [1, 2]

    def test_terminal_event_must_end_its_batch(self, tmp_path):
        hub, _ = _durable_hub(tmp_path)
        cid = hub.create({})
        with pytest.raises(ConfigurationError, match="terminal"):
            hub.publish_many(cid, [("done", {}), ("cell", {"cell": 0})])
        assert hub.events_since(cid) == ([], False)

    def test_resume_prefill_after_restart_stays_gapless(self, tmp_path):
        # Crash after cell 0; the resumed runner's checkpoint prefill
        # re-fires cell 0 before computing cell 1.  The merged log must
        # be gapless and duplicate-free.
        hub, _ = _durable_hub(tmp_path)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0, "ok": True})

        reborn, _ = _durable_hub(tmp_path)
        reborn.load_persisted()
        assert reborn.publish(cid, "cell", {"cell": 0, "ok": True}) == 1
        assert reborn.publish(cid, "cell", {"cell": 1, "ok": True}) == 2
        reborn.finish(cid)
        events, _ = reborn.events_since(cid)
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert [e["data"].get("cell") for e in events[:-1]] == [0, 1]

    def test_eviction_with_store_reloads_transparently(self, tmp_path):
        hub, obs = _durable_hub(tmp_path, max_finished=0, finished_ttl_s=None)
        hub.store.write_manifest("cabc", {"meta": {}})
        cid = hub.create({}, campaign_id="cabc")
        hub.publish(cid, "cell", {"cell": 0})
        hub.finish(cid)
        assert hub.reap() == 1
        assert obs.counter_value("stream.evictions") == 1
        # Eviction only forgot the fast copy: reads rebuild from disk.
        events, done = hub.events_since(cid)
        assert done and [e["seq"] for e in events] == [1, 2]
        assert obs.counter_value("stream.campaigns_reloaded") == 1

    def test_eviction_without_store_raises_410_hint(self):
        obs = Registry()
        hub = CampaignHub(obs=obs, max_finished=0, finished_ttl_s=None)
        cid = hub.create(
            {"scenario": "weakly_hard", "fingerprint": "f" * 64}
        )
        hub.finish(cid)
        assert hub.reap() == 1
        with pytest.raises(CampaignEvicted) as excinfo:
            hub.events_since(cid)
        hint = excinfo.value.hint
        assert hint["campaign_id"] == cid
        assert hint["scenario"] == "weakly_hard"
        assert hint["fingerprint"] == "f" * 64
        assert "resume" in hint
        assert hub.evicted_hint(cid) == hint

    def test_duplicate_explicit_id_is_rejected(self, tmp_path):
        hub, _ = _durable_hub(tmp_path)
        hub.create({}, campaign_id="cabc")
        with pytest.raises(ConfigurationError, match="already exists"):
            hub.create({}, campaign_id="cabc")


@pytest.fixture(scope="module")
def durable_run(tmp_path_factory):
    """One campaign taken through submit → done → resubmit → restart.

    All the expensive choreography happens once; the tests below assert
    on the collected artifacts.
    """
    checkpoint = tmp_path_factory.mktemp("durable-ckpt")
    artifacts = {}

    service = ScheduleService(jobs=1, checkpoint_dir=checkpoint)
    with running_server(service) as server:
        client = ServiceClient(server.url, timeout_s=60.0)
        status, first = client.submit_scenario({"pack": "weakly_hard"})
        assert status == 200, first
        artifacts["first"] = first
        artifacts["events"] = list(client.stream(first["campaign_id"]))
        status, again = client.submit_scenario({"pack": "weakly_hard"})
        assert status == 200, again
        artifacts["resubmit"] = again
        artifacts["resumed"] = list(
            FleetClient([server.url], timeout_s=60.0).resume_scenario(
                {"pack": "weakly_hard"}, max_reconnects=1
            )
        )
    service.close()

    # The crash-restart: a brand-new service over the same directory.
    reborn = ScheduleService(jobs=1, checkpoint_dir=checkpoint)
    artifacts["orphans"] = reborn.resume_campaigns()
    with running_server(reborn) as server:
        client = ServiceClient(server.url, timeout_s=60.0)
        artifacts["replay"] = list(
            client.stream(artifacts["first"]["campaign_id"])
        )
        artifacts["tail"] = list(
            client.stream(artifacts["first"]["campaign_id"], after=1)
        )
        status, after_restart = client.submit_scenario({"pack": "weakly_hard"})
        assert status == 200, after_restart
        artifacts["post_restart_submit"] = after_restart
        artifacts["metrics"] = client.metrics()[1]
    reborn.close()
    return artifacts


class TestDurableHttp:
    def test_campaign_id_is_content_addressed(self, durable_run):
        first = durable_run["first"]
        assert first["campaign_id"] == campaign_key(first["fingerprint"])

    def test_stream_runs_to_done(self, durable_run):
        events = durable_run["events"]
        assert [e["kind"] for e in events] == ["cell", "cell", "done"]
        assert [e["seq"] for e in events] == [1, 2, 3]

    def test_resubmission_is_idempotent(self, durable_run):
        again = durable_run["resubmit"]
        assert again["campaign_id"] == durable_run["first"]["campaign_id"]
        assert again["state"] == "done"
        assert again["events"] == 3

    def test_resume_scenario_replays_the_finished_campaign(self, durable_run):
        resumed = durable_run["resumed"]
        assert [e["seq"] for e in resumed] == [1, 2, 3]
        assert resumed[-1]["kind"] == "done"

    def test_restart_replays_the_full_event_log(self, durable_run):
        assert durable_run["replay"] == durable_run["events"]

    def test_after_cursor_survives_the_restart(self, durable_run):
        assert durable_run["tail"] == durable_run["events"][1:]

    def test_finished_campaign_is_not_an_orphan(self, durable_run):
        assert durable_run["orphans"] == []

    def test_submit_after_restart_returns_the_done_state(self, durable_run):
        payload = durable_run["post_restart_submit"]
        assert payload["campaign_id"] == durable_run["first"]["campaign_id"]
        assert payload["state"] == "done"

    def test_recovery_counter_is_exported(self, durable_run):
        metrics = durable_run["metrics"]["tests"]["service"]["metrics"]
        values = {row["name"]: row["value"] for row in metrics}
        assert values.get("stream.campaigns_recovered", 0) >= 1


class TestHttpEviction:
    def test_evicted_campaign_answers_410_with_resume_hint(self):
        service = ScheduleService(jobs=1)
        # Store-less retention bound of zero: every finished campaign is
        # evicted at the next reap, which is the only way to see a 410
        # (with a store the hub transparently reloads instead).
        service.campaigns = CampaignHub(
            obs=service.obs, max_finished=0, finished_ttl_s=None
        )
        with running_server(service) as server:
            client = ServiceClient(server.url, timeout_s=60.0)
            status, payload = client.submit_scenario({"pack": "weakly_hard"})
            assert status == 200, payload
            events = list(client.stream(payload["campaign_id"]))
            assert events[-1]["kind"] == "done"
            assert service.campaigns.reap() == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                list(client.stream(payload["campaign_id"]))
            assert excinfo.value.code == 410
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["error_kind"] == "gone"
            hint = body["resume"]
            assert hint["campaign_id"] == payload["campaign_id"]
            assert hint["fingerprint"] == payload["fingerprint"]
        service.close()
