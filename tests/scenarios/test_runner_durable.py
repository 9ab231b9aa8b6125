"""Scenario campaigns through the checkpoint journal: prefill + identity.

ISSUE 10 made scenario cells content-addressable (the factory slots
implement ``checkpoint_payload()``), so a re-run of the identical
scenario against the same journal prefills every finished cell instead
of recomputing it — the mechanism the durable server leans on for
idempotent re-submission.
"""

from __future__ import annotations

from repro.experiments.checkpoint import CheckpointJournal, canonical_spec_payload
from repro.scenarios import load_pack
from repro.scenarios.runner import run_scenario, scenario_specs


def _run(scenario, tmp_path):
    events = []
    report = run_scenario(
        scenario, jobs=1, progress=events.append, checkpoint=tmp_path
    )
    return report, events


class TestContentAddressableCells:
    def test_every_pack_cell_is_addressable(self):
        # The factory slots (JCL constraints, fault plans) must not make
        # a cell opaque to the journal — an unaddressable cell silently
        # recomputes on every resume.
        from repro.scenarios import available_packs

        for name in available_packs():
            scenario = load_pack(name)
            for spec in scenario_specs(scenario):
                assert canonical_spec_payload(spec) is not None, (
                    f"{name}: cell not content-addressable"
                )


class TestCheckpointPrefill:
    def test_rerun_prefills_every_cell(self, tmp_path):
        scenario = load_pack("weakly_hard")
        report, events = _run(scenario, tmp_path)
        assert all(e.get("checkpoint") == "stored" for e in events)
        assert len(CheckpointJournal(tmp_path).load()) == len(events)

        again, replays = _run(scenario, tmp_path)
        assert all(e.get("checkpoint") == "hit" for e in replays)
        # Bit-identical verdicts: the journaled results are the results.
        for before, after in zip(report.cells, again.cells):
            assert before.result.average_power == after.result.average_power
            assert before.violations == after.violations

    def test_partial_journal_recomputes_only_the_tail(self, tmp_path):
        scenario = load_pack("weakly_hard")
        _run(scenario, tmp_path)
        # Simulate a crash that lost the last committed cell: drop the
        # final journal line.
        journal = CheckpointJournal(tmp_path)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        journal.path.write_bytes(b"".join(lines[:-1]))

        _, events = _run(scenario, tmp_path)
        states = [e.get("checkpoint") for e in events]
        assert states.count("hit") == len(lines) - 1
        assert states.count("stored") == 1
