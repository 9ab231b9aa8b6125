"""Checkpoint/resume: content-addressed journals survive crashes.

The contract under test: a journal record, once ``record()`` returns,
is the cell's answer — bit-identical to recomputation — while any torn
or corrupted record degrades to a *miss* (recompute), never a wrong
hit.  Resume is exercised end to end through ``run_many(...,
checkpoint=dir)`` and the experiment drivers wired on top of it.
"""

import json
import os

import pytest

from repro.experiments.checkpoint import (
    JOURNAL_NAME,
    CheckpointJournal,
    canonical_spec_payload,
    gc_journal,
    scrub_journal,
    spec_fingerprint,
)
from repro.experiments.runner import RunSpec, run_many
from repro.faults.chaos import tear_file
from repro.faults.guards import GuardConfig
from repro.faults.injectors import make_injector
from repro.faults.layer import FaultLayer
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload


def _spec(seed=1, scheduler="lpfps", duration=9_600.0):
    taskset = get_workload("cnc").prioritized()
    return RunSpec(
        taskset=taskset,
        scheduler=scheduler,
        seed=seed,
        execution_model=GaussianModel(),
        duration=duration,
    )


def _sig(result):
    """repr-exact identity of one cell result (the bit-identity oracle)."""
    return (
        repr(result.energy.total),
        repr(result.average_power),
        result.jobs_completed,
        result.context_switches,
        result.sleep_entries,
        result.speed_changes,
        len(result.deadline_misses),
    )


class TestFingerprint:
    def test_equal_specs_share_a_fingerprint(self):
        assert spec_fingerprint(_spec()) == spec_fingerprint(_spec())

    def test_every_result_determining_knob_participates(self):
        base = spec_fingerprint(_spec())
        assert spec_fingerprint(_spec(seed=2)) != base
        assert spec_fingerprint(_spec(scheduler="fps")) != base
        assert spec_fingerprint(_spec(duration=4_800.0)) != base

    def test_on_disk_identities_are_pinned(self):
        # Journals and campaign ids written before the kernel had a
        # single path must stay valid: both hashes keep the constant
        # ``"execution": "exact"``, so these values never move.
        from repro.service.durability import campaign_key

        spec = RunSpec(
            get_workload("example").taskset,
            "lpfps",
            seed=1,
            execution_model=GaussianModel(),
        )
        assert spec_fingerprint(spec) == (
            "a3fec241cc4e76f292700ae8d53120c5956ee594572747d93cebff4598e6cd4a"
        )
        assert campaign_key("f" * 64) == "c6f5ae9b34c64c673"

    def test_on_disk_bytes_are_pinned(self, tmp_path):
        # Caches, journals and campaign logs written by earlier releases
        # must stay readable and byte-identical: the record encodings
        # and the write discipline under them may not drift.
        import hashlib

        from repro.service.cache import ResultCache
        from repro.service.durability import CampaignStore

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        with CheckpointJournal(tmp_path / "ckpt") as journal:
            journal.record("f" * 64, {"cell": 1, "energy": 0.5})
        assert sha(tmp_path / "ckpt" / JOURNAL_NAME) == (
            "c9ca7788999e9b2ec51933e2d96b8881cacd67104a9c9c4b83b4608205955bae"
        )
        store = CampaignStore(tmp_path / "srv")
        assert store.write_manifest("c1", {"meta": {"pack": "cnc"}, "cells": 4})
        assert sha(store.manifest_path("c1")) == (
            "f3c28d759b6ab016dec59e9db6c56d2dd559bd35c6efeb71139a07aa859024cc"
        )
        assert store.append_event(
            "c1", {"seq": 1, "kind": "cell", "data": {"i": 0, "energy": 0.25}}
        )
        assert store.append_event("c1", {"seq": 2, "kind": "done", "data": {}})
        store.close()
        assert sha(store.events_path("c1")) == (
            "32e896ffdfa2b82914033441df41b06e59775a8fb8911b10044da4e0ca4e5e68"
        )
        key = "ab" + "cd" * 31
        ResultCache(disk_dir=tmp_path / "cache").put(
            key, {"ok": True, "energy": 0.125}
        )
        assert sha(tmp_path / "cache" / key[:2] / f"{key}.json") == (
            "99d6dc5036324925c5f3e84cbbc688bda659e3f4efa255ed9e8a5aee0cb233f8"
        )

    def test_callable_scheduler_is_opaque(self):
        spec = _spec()
        opaque = RunSpec(
            taskset=spec.taskset,
            scheduler=lambda: None,
            execution_model=GaussianModel(),
            duration=9_600.0,
        )
        assert canonical_spec_payload(opaque) is None
        assert spec_fingerprint(opaque) is None

    def test_fault_layer_is_content_addressed(self):
        def layer(seed):
            return FaultLayer(
                injectors=[make_injector("wcet-overrun", intensity=0.2)],
                guards=GuardConfig(),
                seed=seed,
            )

        spec = _spec()
        with_faults = RunSpec(
            taskset=spec.taskset,
            scheduler="lpfps",
            execution_model=GaussianModel(),
            duration=9_600.0,
            faults=layer(7),
        )
        fp = spec_fingerprint(with_faults)
        assert fp is not None
        assert fp != spec_fingerprint(spec)
        rebuilt = RunSpec(
            taskset=spec.taskset,
            scheduler="lpfps",
            execution_model=GaussianModel(),
            duration=9_600.0,
            faults=layer(7),
        )
        assert spec_fingerprint(rebuilt) == fp
        reseeded = RunSpec(
            taskset=spec.taskset,
            scheduler="lpfps",
            execution_model=GaussianModel(),
            duration=9_600.0,
            faults=layer(8),
        )
        assert spec_fingerprint(reseeded) != fp

    def test_fault_factory_is_opaque(self):
        spec = _spec()
        factory_spec = RunSpec(
            taskset=spec.taskset,
            scheduler="lpfps",
            execution_model=GaussianModel(),
            duration=9_600.0,
            faults=lambda: None,
        )
        assert spec_fingerprint(factory_spec) is None


class TestJournal:
    def test_roundtrip(self, tmp_path):
        spec = _spec()
        (result,) = run_many([spec], jobs=1)
        journal = CheckpointJournal(tmp_path)
        assert journal.record(spec_fingerprint(spec), result)
        journal.close()
        loaded = CheckpointJournal(tmp_path).load()
        assert _sig(loaded[spec_fingerprint(spec)]) == _sig(result)

    def test_torn_tail_keeps_intact_prefix(self, tmp_path):
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        with CheckpointJournal(tmp_path) as journal:
            results = run_many(specs, jobs=1)
            for spec, result in zip(specs, results):
                assert journal.record(spec_fingerprint(spec), result)
        path = tmp_path / JOURNAL_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        # Tear mid-way through the last record, as a SIGKILL mid-append
        # would: the two committed records must still load.
        path.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        loaded = CheckpointJournal(tmp_path).load()
        assert set(loaded) == {spec_fingerprint(s) for s in specs[:2]}

    def test_checksum_mismatch_is_a_miss_never_a_wrong_hit(self, tmp_path):
        spec = _spec()
        (result,) = run_many([spec], jobs=1)
        with CheckpointJournal(tmp_path) as journal:
            journal.record(spec_fingerprint(spec), result)
        path = tmp_path / JOURNAL_NAME
        record = json.loads(path.read_text())
        record["sha"] = "0" * 64
        path.write_text(json.dumps(record) + "\n")
        assert CheckpointJournal(tmp_path).load() == {}

    def test_torn_file_never_yields_wrong_results(self, tmp_path):
        spec = _spec()
        (result,) = run_many([spec], jobs=1)
        with CheckpointJournal(tmp_path) as journal:
            journal.record(spec_fingerprint(spec), result)
        path = tmp_path / JOURNAL_NAME
        tear_file(path, seed=5)
        loaded = CheckpointJournal(tmp_path).load()
        # Either the record survived intact (tear hit a later byte than
        # its newline) or it is gone — it is never a corrupted hit.
        assert set(loaded) <= {spec_fingerprint(spec)}
        for value in loaded.values():
            assert _sig(value) == _sig(result)

    def test_missing_journal_is_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "nowhere")
        assert journal.load() == {}
        assert len(journal) == 0


class TestRunManyCheckpoint:
    def test_first_run_stores_second_run_hits(self, tmp_path):
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        first = run_many(specs, jobs=1, checkpoint=tmp_path)
        assert all(r.metadata["checkpoint"] == "stored" for r in first)
        second = run_many([_spec(seed=s) for s in (1, 2, 3)], jobs=1, checkpoint=tmp_path)
        assert all(r.metadata["checkpoint"] == "hit" for r in second)
        assert [_sig(r) for r in second] == [_sig(r) for r in first]

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        # Phase 1: a "crashed" campaign that only finished two cells.
        done = [_spec(seed=s) for s in (1, 2)]
        run_many(done, jobs=1, checkpoint=tmp_path)
        # Phase 2: the full campaign resumes over the same journal.
        full = [_spec(seed=s) for s in (1, 2, 3, 4)]
        results = run_many(full, jobs=1, checkpoint=tmp_path)
        states = [r.metadata["checkpoint"] for r in results]
        assert states == ["hit", "hit", "stored", "stored"]
        reference = run_many([_spec(seed=s) for s in (1, 2, 3, 4)], jobs=1)
        assert [_sig(r) for r in results] == [_sig(r) for r in reference]

    def test_checkpointed_results_match_uncheckpointed(self, tmp_path):
        specs = [_spec(seed=s) for s in (1, 2)]
        checkpointed = run_many(specs, jobs=1, checkpoint=tmp_path)
        plain = run_many([_spec(seed=s) for s in (1, 2)], jobs=1)
        assert [_sig(r) for r in checkpointed] == [_sig(r) for r in plain]

    def test_pool_path_checkpoints_too(self, tmp_path):
        specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
        first = run_many(specs, jobs=2, checkpoint=tmp_path)
        assert all(r.metadata["checkpoint"] == "stored" for r in first)
        second = run_many(
            [_spec(seed=s) for s in (1, 2, 3, 4)], jobs=2, checkpoint=tmp_path
        )
        assert all(r.metadata["checkpoint"] == "hit" for r in second)
        assert [_sig(r) for r in second] == [_sig(r) for r in first]

    def test_opaque_cells_run_uncheckpointed(self, tmp_path):
        from repro.schedulers.registry import make_scheduler

        def factory():
            return make_scheduler("fps")

        spec = _spec()
        opaque = RunSpec(
            taskset=spec.taskset,
            scheduler=factory,
            execution_model=GaussianModel(),
            duration=9_600.0,
        )
        results = run_many([opaque], jobs=1, checkpoint=tmp_path)
        assert "checkpoint" not in results[0].metadata
        assert not (tmp_path / JOURNAL_NAME).exists()

    def test_checkpoint_counters_in_obs(self, tmp_path):
        from repro.obs.registry import Registry, installed

        specs = [_spec(seed=s) for s in (1, 2)]
        registry = Registry()
        with installed(registry):
            run_many(specs, jobs=1, checkpoint=tmp_path)
        assert registry.counter_value("runner.checkpoint_stored") == 2
        registry2 = Registry()
        with installed(registry2):
            run_many([_spec(seed=s) for s in (1, 2)], jobs=1, checkpoint=tmp_path)
        assert registry2.counter_value("runner.checkpoint_hits") == 2


class TestExperimentWiring:
    def test_figure8_resumes_from_checkpoint(self, tmp_path):
        from repro.experiments.figure8 import run_figure8

        kwargs = dict(ratios=(0.5,), seeds=(1,), duration=9_600.0)
        first = run_figure8("cnc", checkpoint=tmp_path, **kwargs)
        journal = CheckpointJournal(tmp_path)
        stored = len(journal)
        assert stored == 2  # FPS + LPFPS at one ratio, one seed
        second = run_figure8("cnc", checkpoint=tmp_path, **kwargs)
        assert len(journal) == stored  # nothing recomputed, nothing re-stored
        for p1, p2 in zip(first.points, second.points):
            assert repr(p1.fps_power) == repr(p2.fps_power)
            assert repr(p1.lpfps_power) == repr(p2.lpfps_power)

    def test_campaign_accepts_checkpoint(self, tmp_path):
        from repro.faults.campaign import run_campaign
        from repro.workloads.example_dac99 import example_taskset

        kwargs = dict(policies=("fps", "lpfps"), seeds=(1,), duration=2_000.0)
        first = run_campaign(
            example_taskset(), "wcet-overrun", 0.2, checkpoint=tmp_path, **kwargs
        )
        assert len(CheckpointJournal(tmp_path)) > 0
        second = run_campaign(
            example_taskset(), "wcet-overrun", 0.2, checkpoint=tmp_path, **kwargs
        )
        for o1, o2 in zip(first.outcomes, second.outcomes):
            assert repr(o1.power) == repr(o2.power)
            assert repr(o1.baseline_power) == repr(o2.baseline_power)


class TestJournalGc:
    """`lpfps checkpoint gc`: compaction of the append-only journal."""

    def _fill(self, tmp_path, records):
        with CheckpointJournal(tmp_path) as journal:
            for fp, value in records:
                assert journal.record(fp, value)

    def test_superseded_duplicates_drop_later_wins(self, tmp_path):
        self._fill(
            tmp_path,
            [("fp-a", {"v": 1}), ("fp-b", {"v": 2}), ("fp-a", {"v": 3})],
        )
        report = gc_journal(tmp_path)
        assert (report.lines_total, report.kept) == (3, 2)
        assert (report.superseded, report.corrupt) == (1, 0)
        loaded = CheckpointJournal(tmp_path).load()
        assert loaded == {"fp-a": {"v": 3}, "fp-b": {"v": 2}}
        # Compaction is idempotent.
        again = gc_journal(tmp_path)
        assert again.dropped == 0 and again.kept == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        self._fill(tmp_path, [("fp-a", {"v": 1}), ("fp-b", {"v": 2})])
        path = tmp_path / JOURNAL_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines) + lines[0][: len(lines[0]) // 2])
        report = gc_journal(tmp_path)
        assert report.corrupt == 1
        assert report.kept == 2
        assert set(CheckpointJournal(tmp_path).load()) == {"fp-a", "fp-b"}

    def test_gc_preserves_what_load_returns(self, tmp_path):
        spec = _spec()
        (result,) = run_many([spec], jobs=1)
        fp = spec_fingerprint(spec)
        with CheckpointJournal(tmp_path) as journal:
            journal.record(fp, result)
            journal.record(fp, result)  # overlapping-campaign duplicate
        before = CheckpointJournal(tmp_path).load()
        gc_journal(tmp_path)
        after = CheckpointJournal(tmp_path).load()
        assert set(after) == set(before) == {fp}
        assert _sig(after[fp]) == _sig(result)

    def test_dry_run_touches_nothing(self, tmp_path):
        self._fill(tmp_path, [("fp-a", {"v": 1}), ("fp-a", {"v": 2})])
        path = tmp_path / JOURNAL_NAME
        raw = path.read_bytes()
        report = gc_journal(tmp_path, dry_run=True)
        assert report.dry_run
        assert report.superseded == 1
        assert report.bytes_after < report.bytes_before
        assert path.read_bytes() == raw

    def test_missing_journal_reports_empty(self, tmp_path):
        report = gc_journal(tmp_path)
        assert report.lines_total == 0
        assert not (tmp_path / JOURNAL_NAME).exists()

    def test_not_a_directory_is_a_configuration_error(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            gc_journal(tmp_path / "nowhere")

    def test_cli_gc_and_dry_run(self, tmp_path, capsys):
        from repro.cli import main

        self._fill(
            tmp_path,
            [("fp-a", {"v": 1}), ("fp-a", {"v": 2}), ("fp-b", {"v": 3})],
        )
        path = tmp_path / JOURNAL_NAME
        raw = path.read_bytes()
        assert main(["checkpoint", "gc", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert path.read_bytes() == raw
        assert main(["checkpoint", "gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept:               2" in out
        assert CheckpointJournal(tmp_path).load() == {
            "fp-a": {"v": 2}, "fp-b": {"v": 3},
        }

    def test_cli_gc_bad_directory_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["checkpoint", "gc", str(tmp_path / "nope")]) == 1


class TestMaintenanceLock:
    """GC and repair never replace a journal under a live appender."""

    def test_record_after_refused_gc_is_loadable(self, tmp_path):
        from repro.errors import ConfigurationError

        journal = CheckpointJournal(tmp_path)
        journal.record("a", 1)
        journal.record("a", 2)
        with pytest.raises(ConfigurationError, match="running campaign"):
            gc_journal(tmp_path)
        assert journal.record("b", 3)
        assert CheckpointJournal(tmp_path).load() == {"a": 2, "b": 3}
        journal.close()
        assert gc_journal(tmp_path).superseded == 1
        assert CheckpointJournal(tmp_path).load() == {"a": 2, "b": 3}

    def test_repair_is_refused_while_appending(self, tmp_path):
        from repro.errors import ConfigurationError

        with CheckpointJournal(tmp_path) as journal:
            journal.record("a", 1)
            with pytest.raises(ConfigurationError):
                scrub_journal(tmp_path, repair=True)
            assert scrub_journal(tmp_path).clean  # verify-only never locks
            assert gc_journal(tmp_path, dry_run=True).kept == 1
        assert scrub_journal(tmp_path, repair=True).clean

    def test_cli_maintenance_exits_1_while_appending(self, tmp_path, capsys):
        from repro.cli import main

        with CheckpointJournal(tmp_path) as journal:
            journal.record("a", 1)
            assert main(["checkpoint", "gc", str(tmp_path)]) == 1
            assert "running campaign" in capsys.readouterr().err
            assert main(
                ["cache", "verify", "--checkpoint", str(tmp_path), "--repair"]
            ) == 1
            assert "running campaign" in capsys.readouterr().err
        assert main(["checkpoint", "gc", str(tmp_path)]) == 0

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="permission bits do not bind the superuser",
    )
    def test_cli_repair_of_clean_journal_in_read_only_dir(self, tmp_path, capsys):
        from repro.cli import main

        with CheckpointJournal(tmp_path) as journal:
            journal.record("a", 1)
        (tmp_path / "journal.lock").unlink()
        tmp_path.chmod(0o555)
        try:
            assert main(
                ["cache", "verify", "--checkpoint", str(tmp_path), "--repair"]
            ) == 0
        finally:
            tmp_path.chmod(0o755)

    def test_uncreatable_lock_file(self, tmp_path, monkeypatch, capsys):
        # What a read-only or foreign-owned directory does to the
        # sidecar open, independent of the uid running the suite.
        from repro import store
        from repro.cli import main

        with CheckpointJournal(tmp_path) as journal:
            journal.record("a", 1)
        real_open = os.open

        def refuse_lock(path, flags, *args):
            if path.endswith("journal.lock"):
                raise PermissionError(13, "Permission denied")
            return real_open(path, flags, *args)

        monkeypatch.setattr(store.os, "open", refuse_lock)
        repair = ["cache", "verify", "--checkpoint", str(tmp_path), "--repair"]
        # Sidecar present but unopenable: an appender may hold it.
        assert main(repair) == 1
        assert "Permission denied" in capsys.readouterr().err
        # No sidecar and none creatable: no appender can exist.
        (tmp_path / "journal.lock").unlink()
        assert main(repair) == 0
        assert gc_journal(tmp_path).kept == 1

    def test_forked_children_do_not_pin_the_lock(self, tmp_path):
        # A pool worker forked while the journal is open inherits the
        # lock's descriptor and may outlive the campaign in the warm pool.
        import multiprocessing
        import time

        journal = CheckpointJournal(tmp_path)
        journal.record("a", 1)
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,)
        )
        child.start()
        try:
            journal.close()
            assert gc_journal(tmp_path).kept == 1
        finally:
            child.terminate()
            child.join()


class TestCliWiring:
    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    def test_figure8_cli_flags_parse(self, flag, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure8", flag, str(tmp_path)])
        assert args.checkpoint == str(tmp_path)

    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    def test_faults_cli_flags_parse(self, flag, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["faults", "--workload", "cnc", flag, str(tmp_path)]
        )
        assert args.checkpoint == str(tmp_path)
