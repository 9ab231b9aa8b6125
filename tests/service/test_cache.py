"""Result-cache tiers: LRU behaviour, disk persistence, degradation."""

from __future__ import annotations

import json

from repro.obs.registry import Registry
from repro.service.cache import ENVELOPE_VERSION, ResultCache, payload_checksum

PAYLOAD = {"ok": True, "kind": "energy", "average_power": 0.5}


def _key(i: int) -> str:
    return f"{i:02x}" + "ab" * 31


class TestMemoryTier:
    def test_round_trip(self):
        cache = ResultCache(memory_items=4)
        cache.put(_key(1), PAYLOAD)
        payload, tier = cache.get_with_tier(_key(1))
        assert payload == PAYLOAD
        assert tier == "memory"
        assert cache.obs.counter_value("cache.hits_memory") == 1

    def test_miss(self):
        cache = ResultCache(memory_items=4)
        assert cache.get(_key(1)) is None
        assert cache.obs.counter_value("cache.misses") == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(memory_items=2)
        cache.put(_key(1), {"v": 1})
        cache.put(_key(2), {"v": 2})
        assert cache.get(_key(1)) == {"v": 1}  # touch 1: now 2 is LRU
        cache.put(_key(3), {"v": 3})
        assert cache.get(_key(2)) is None
        assert cache.get(_key(1)) == {"v": 1}
        assert cache.get(_key(3)) == {"v": 3}
        assert cache.obs.counter_value("cache.mem_evictions") == 1

    def test_zero_capacity_memory_tier_is_passthrough(self):
        cache = ResultCache(memory_items=0)
        cache.put(_key(1), PAYLOAD)
        assert len(cache) == 0
        assert cache.get(_key(1)) is None


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(memory_items=4, disk_dir=tmp_path / "cache")
        first.put(_key(7), PAYLOAD)
        second = ResultCache(memory_items=4, disk_dir=tmp_path / "cache")
        payload, tier = second.get_with_tier(_key(7))
        assert payload == PAYLOAD
        assert tier == "disk"

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        cache = ResultCache(memory_items=4, disk_dir=tmp_path / "cache")
        cache.put(_key(7), PAYLOAD)
        fresh = ResultCache(memory_items=4, disk_dir=tmp_path / "cache")
        assert fresh.get_with_tier(_key(7))[1] == "disk"
        assert fresh.get_with_tier(_key(7))[1] == "memory"

    def test_eviction_does_not_lose_the_answer(self, tmp_path):
        cache = ResultCache(memory_items=1, disk_dir=tmp_path / "cache")
        cache.put(_key(1), {"v": 1})
        cache.put(_key(2), {"v": 2})  # evicts key 1 from memory
        payload, tier = cache.get_with_tier(_key(1))
        assert payload == {"v": 1}
        assert tier == "disk"

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(memory_items=0, disk_dir=tmp_path / "cache")
        cache.put(_key(3), PAYLOAD)
        path = next((tmp_path / "cache").rglob("*.json"))
        path.write_text("{torn")
        assert cache.get(_key(3)) is None
        assert not path.exists(), "corrupt entries are removed"

    def test_entries_are_sharded_checksummed_envelopes(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "cache")
        key = _key(0xAB)
        cache.put(key, PAYLOAD)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        assert path.exists()
        document = json.loads(path.read_text())
        assert document["v"] == ENVELOPE_VERSION
        assert document["key"] == key
        assert document["sha"] == payload_checksum(PAYLOAD)
        assert document["payload"] == PAYLOAD

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        # A syntactically valid envelope whose payload was silently
        # altered on disk: only the checksum can catch this one.
        cache = ResultCache(memory_items=0, disk_dir=tmp_path / "cache")
        key = _key(4)
        cache.put(key, PAYLOAD)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        document = json.loads(path.read_text())
        document["payload"]["average_power"] = 99.0
        path.write_text(json.dumps(document))
        assert cache.get(key) is None
        assert not path.exists()

    def test_misfiled_key_is_a_miss(self, tmp_path):
        # An envelope copied to the wrong fingerprint's slot must not
        # serve as that fingerprint's answer.
        cache = ResultCache(memory_items=0, disk_dir=tmp_path / "cache")
        donor, victim = _key(1), _key(2)
        cache.put(donor, PAYLOAD)
        donor_path = tmp_path / "cache" / donor[:2] / f"{donor}.json"
        victim_path = tmp_path / "cache" / victim[:2] / f"{victim}.json"
        victim_path.parent.mkdir(parents=True, exist_ok=True)
        victim_path.write_text(donor_path.read_text())
        assert cache.get(victim) is None

    def test_unwritable_disk_dir_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should go")
        cache = ResultCache(memory_items=4, disk_dir=blocker / "sub")
        cache.put(_key(1), PAYLOAD)  # disk write fails silently
        assert cache.get(_key(1)) == PAYLOAD  # memory tier still serves


def test_counters_snapshot():
    cache = ResultCache(memory_items=2)
    cache.put(_key(1), PAYLOAD)
    cache.get(_key(1))
    cache.get(_key(9))
    obs = cache.obs
    assert obs.counter_value("cache.puts") == 1
    assert obs.counter_value("cache.hits_memory") == 1
    assert obs.counter_value("cache.misses") == 1
    assert len(cache) == 1


def test_memory_evictions_reach_obs_registry():
    registry = Registry()
    cache = ResultCache(memory_items=2, obs=registry)
    cache.put(_key(1), {"v": 1})
    cache.put(_key(2), {"v": 2})
    assert registry.counter_value("cache.mem_evictions") == 0
    cache.put(_key(3), {"v": 3})
    assert registry.counter_value("cache.mem_evictions") == 1
    assert cache.obs is registry


def test_no_registry_means_a_private_registry():
    # A cache built without a registry owns one: evictions still count,
    # and nothing escapes the cache object.
    cache = ResultCache(memory_items=1)
    cache.put(_key(1), {"v": 1})
    cache.put(_key(2), {"v": 2})
    assert cache.obs.counter_value("cache.mem_evictions") == 1
    assert ResultCache().obs is not cache.obs
