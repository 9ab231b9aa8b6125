"""The bundled pack library: every pack valid, addressable, round-trippable."""

import json

import pytest

from repro.analysis.weakly_hard import jcl_schedulability
from repro.errors import ConfigurationError
from repro.scenarios import (
    PACKS_DIR,
    available_packs,
    load_pack,
    pack_path,
    parse_scenario,
)

EXPECTED_PACKS = {
    "automotive",
    "avionics",
    "bursty_server",
    "cnc",
    "ins",
    "sensor_hub",
    "weakly_hard",
}


class TestLibrary:
    def test_expected_packs_present(self):
        assert EXPECTED_PACKS <= set(available_packs())

    def test_unknown_pack_lists_available(self):
        with pytest.raises(ConfigurationError, match="available: .*weakly_hard"):
            load_pack("nope")

    def test_a_path_is_not_a_pack_name(self):
        # A pack name arrives in /v1/scenario bodies; a relative path must
        # not reach a JSON file outside the library.
        with pytest.raises(ConfigurationError, match="unknown scenario pack"):
            load_pack("../packs/cnc")

    def test_pack_path_points_into_the_library(self):
        path = pack_path("cnc")
        assert path.parent == PACKS_DIR
        assert json.loads(path.read_text())["name"] == "cnc"

    @pytest.mark.parametrize("name", sorted(EXPECTED_PACKS))
    def test_pack_parses_and_round_trips(self, name):
        scenario = load_pack(name)
        assert scenario.name == name
        assert scenario.pack == name
        fingerprint = scenario.fingerprint()
        reparsed = parse_scenario(scenario.canonical_document())
        assert reparsed.fingerprint() == fingerprint

    def test_weakly_hard_packs_are_jcl_schedulable(self):
        for name in sorted(EXPECTED_PACKS):
            scenario = load_pack(name)
            if not scenario.constraints:
                continue
            verdict = jcl_schedulability(scenario.taskset, scenario.constraints)
            assert verdict.schedulable, f"{name}: {verdict.reason}"

    def test_automotive_pack_declares_milliseconds(self):
        """The ms pack exercises time-unit scaling end to end."""
        document = json.loads(pack_path("automotive").read_text())
        assert document["time_unit"] == "ms"
        scenario = load_pack("automotive")
        # normalised to µs: every period is >= 1000 (declared >= 1 ms)
        assert all(task.period >= 1_000.0 for task in scenario.taskset)

    def test_weakly_hard_pack_is_hard_infeasible(self):
        """The EXP-W pack must overload the processor as a hard workload."""
        scenario = load_pack("weakly_hard")
        assert scenario.taskset.utilization > 1.0
        assert scenario.constraints
        assert {"fps", "jcl"} <= set(scenario.campaign.schedulers)
