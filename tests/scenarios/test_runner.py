"""Scenario campaign runner: grid construction, judging, progress events."""

import json
import pickle

import pytest

from repro.experiments.runner import RunSpec
from repro.scenarios import load_pack, run_scenario, scenario_specs
from repro.scenarios.runner import _FaultFactory, _JclFactory


@pytest.fixture(scope="module")
def weakly_hard_report():
    """One serial run of the EXP-W pack, shared across the module."""
    scenario = load_pack("weakly_hard")
    events = []
    report = run_scenario(scenario, jobs=1, progress=events.append)
    return scenario, report, events


class TestSpecs:
    def test_grid_is_scheduler_major(self):
        scenario = load_pack("weakly_hard")
        specs = scenario_specs(scenario)
        grid = [(s.extra["scheduler_name"], s.seed) for s in specs]
        expected = [
            (scheduler, seed)
            for scheduler in scenario.campaign.schedulers
            for seed in scenario.campaign.seeds
        ]
        assert grid == expected
        assert all(isinstance(spec, RunSpec) for spec in specs)

    def test_jcl_cells_carry_the_constraints(self):
        scenario = load_pack("weakly_hard")
        by_scheduler = {
            spec.extra["scheduler_name"]: spec for spec in scenario_specs(scenario)
        }
        assert isinstance(by_scheduler["jcl"].scheduler, _JclFactory)
        assert by_scheduler["fps"].scheduler == "fps"
        factory = by_scheduler["jcl"].scheduler
        assert factory.constraints == {
            name: constraint.as_pair()
            for name, constraint in scenario.constraints.items()
        }

    def test_factories_pickle(self):
        """Cells cross process boundaries; the factories must survive it."""
        scenario = load_pack("weakly_hard")
        for spec in scenario_specs(scenario):
            if isinstance(spec.scheduler, (_JclFactory, _FaultFactory)):
                pickle.loads(pickle.dumps(spec.scheduler))
            pickle.loads(pickle.dumps(spec.faults))

    def test_fault_factory_builds_fresh_layers(self):
        scenario = load_pack("weakly_hard")
        factory = _FaultFactory(scenario.faults)
        assert factory() is not factory()


class TestReport:
    def test_exp_w_contrast(self, weakly_hard_report):
        _, report, _ = weakly_hard_report
        verdicts = report.satisfied_by_scheduler()
        assert verdicts["fps"] is False
        assert verdicts["jcl"] is True

    def test_render_marks_violations(self, weakly_hard_report):
        _, report, _ = weakly_hard_report
        rendered = report.render()
        assert "VIOLATED" in rendered
        assert "ok" in rendered
        assert report.fingerprint[:12] in rendered

    def test_cells_cover_the_grid(self, weakly_hard_report):
        scenario, report, _ = weakly_hard_report
        expected = len(scenario.campaign.schedulers) * len(
            scenario.campaign.seeds
        )
        assert len(report.cells) == expected
        assert [cell.index for cell in report.cells] == list(range(expected))
        assert not any(cell.failed for cell in report.cells)


class TestProgress:
    def test_one_event_per_cell_and_json_ready(self, weakly_hard_report):
        scenario, report, events = weakly_hard_report
        assert len(events) == len(report.cells)
        for event in events:
            json.dumps(event)  # must be JSON-serialisable as-is
            assert event["event"] == "cell"
            assert event["total"] == len(report.cells)
            assert event["ok"] is True
            assert "weakly_hard_ok" in event

    def test_events_carry_the_verdict(self, weakly_hard_report):
        _, _, events = weakly_hard_report
        by_scheduler = {event["scheduler"]: event for event in events}
        assert by_scheduler["fps"]["weakly_hard_ok"] is False
        assert by_scheduler["fps"]["violations"]
        assert by_scheduler["jcl"]["weakly_hard_ok"] is True
        assert by_scheduler["jcl"]["violations"] == {}

    def test_pool_run_matches_serial(self):
        """jobs=2 commits through the supervised pool; same verdicts."""
        scenario = load_pack("weakly_hard")
        serial = run_scenario(scenario, jobs=1)
        pooled = run_scenario(scenario, jobs=2)
        assert (
            pooled.satisfied_by_scheduler() == serial.satisfied_by_scheduler()
        )
        assert pooled.fingerprint == serial.fingerprint

    def test_batch_hook_sees_the_per_event_stream(self, weakly_hard_report, monkeypatch):
        """progress is the one-event form of progress_batch."""
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        scenario, _, serial_events = weakly_hard_report
        batches = []
        run_scenario(scenario, jobs=2, progress_batch=batches.append)
        flat = [event for batch in batches for event in batch]
        assert all(batches)
        assert sorted(flat, key=lambda e: e["cell"]) == sorted(
            serial_events, key=lambda e: e["cell"]
        )

    def test_both_hooks_are_refused(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="not both"):
            run_scenario(
                load_pack("weakly_hard"),
                progress=lambda event: None,
                progress_batch=lambda events: None,
            )
