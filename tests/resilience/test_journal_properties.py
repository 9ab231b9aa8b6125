"""Property tests: journal maintenance never loses a committed cell.

ISSUE 10 satellite S6.  Hypothesis drives random interleavings of the
four things that ever happen to a checkpoint journal — a committed cell,
a torn/alien trailing write (a crash mid-append), a GC compaction, and
an integrity scrub — and checks the two invariants the durable-campaign
stack is built on:

* **No committed cell is ever dropped.**  Tears only ever damage the
  record being appended; every previously committed cell must load with
  its exact payload after any maintenance sequence.
* **Maintenance is idempotent.**  A second GC drops nothing; a second
  repair-scrub finds nothing corrupt and leaves the bytes untouched.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import checkpoint
from repro.experiments.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    gc_journal,
    scrub_journal,
)
from repro.store import FileLock, RecordLog

#: Crash-shaped garbage an append can leave behind: a torn JSON prefix,
#: a non-JSON line, raw bytes without a newline, and an intact line of
#: an alien journal version (dropped by the reader, culled by GC).
TEARS = (
    b'{"v": 2, "fp": "torn-',
    b"not json at all\n",
    b"\x00\x80\xfftrailing-binary",
    b'{"v": 99, "fp": "alien", "sha": "00", "blob": "AA=="}\n',
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 5)),
        st.tuples(st.just("tear"), st.integers(0, len(TEARS) - 1)),
        st.tuples(st.just("gc"), st.just(0)),
        st.tuples(st.just("scrub"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def _apply(directory: Path, ops):
    """Run one op sequence; returns the model of committed cells."""
    committed = {}
    revision = 0
    for op, arg in ops:
        if op == "commit":
            revision += 1
            fingerprint = f"cell-{arg}"
            value = {"cell": arg, "revision": revision}
            with CheckpointJournal(directory) as journal:
                assert journal.record(fingerprint, value)
            committed[fingerprint] = value
        elif op == "tear":
            path = directory / "journal.jsonl"
            directory.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as handle:
                handle.write(TEARS[arg])
        elif op == "gc":
            gc_journal(directory)
        else:
            scrub_journal(directory, repair=True)
    return committed


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_no_committed_cell_is_ever_dropped(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        committed = _apply(directory, ops)
        loaded = CheckpointJournal(directory).load()
        for fingerprint, value in committed.items():
            assert loaded.get(fingerprint) == value


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_gc_and_scrub_are_idempotent(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        committed = _apply(directory, ops)
        path = directory / "journal.jsonl"

        scrub_journal(directory, repair=True)
        bytes_after_scrub = path.read_bytes() if path.exists() else b""
        again = scrub_journal(directory, repair=True)
        assert again.corrupt == 0
        assert (path.read_bytes() if path.exists() else b"") == bytes_after_scrub

        first_gc = gc_journal(directory)
        assert first_gc.kept == len(committed)
        second_gc = gc_journal(directory)
        assert second_gc.dropped == 0
        assert second_gc.kept == first_gc.kept

        # And the maintenance pass itself never lost a commit.
        loaded = CheckpointJournal(directory).load()
        assert {
            fp: {"cell": v["cell"], "revision": v["revision"]}
            for fp, v in loaded.items()
        } == committed


def _forge(directory: Path, fp: str, unpicklable: bool) -> None:
    """Append a line claiming *fp*: a checksum-valid blob that does not
    unpickle, or a pickled blob whose checksum does not match."""
    payload = b"not a pickle" if unpicklable else pickle.dumps({"forged": fp})
    record = {
        "v": JOURNAL_VERSION,
        "fp": fp,
        "sha": hashlib.sha256(payload).hexdigest() if unpicklable else "0" * 64,
        "blob": base64.b64encode(payload).decode("ascii"),
    }
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "journal.jsonl", "ab") as handle:
        handle.write(json.dumps(record).encode("utf-8") + b"\n")


@settings(max_examples=60, deadline=None)
@given(
    ops=_ops,
    forged=st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
    wanted=st.sets(st.sampled_from([f"cell-{i}" for i in range(7)])),
)
def test_restricted_load_is_the_filtered_full_load(ops, forged, wanted):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _apply(directory, ops)
        for cell, unpicklable in forged:
            _forge(directory, f"cell-{cell}", unpicklable)
        _apply(directory, [("commit", 0)])  # an intact record after the forgeries
        journal = CheckpointJournal(directory)
        full = journal.load()
        assert journal.load(wanted) == {
            fp: value for fp, value in full.items() if fp in wanted
        }


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_scrub_report_accounts_for_every_line(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _apply(directory, ops)
        report = scrub_journal(directory)  # report-only
        assert report.records == report.intact + report.corrupt
        assert report.dropped == 0  # without repair nothing is touched


# -- the primitive under all three durable artifacts --------------------------

_log_ops = st.lists(
    st.one_of(
        st.just(("append", 0)),
        st.tuples(st.just("batch"), st.integers(0, 4)),
        # A crash mid-batch: (records in the batch, where the bytes stop).
        st.tuples(
            st.just("torn-batch"),
            st.tuples(st.integers(1, 4), st.floats(0.0, 1.0)),
        ),
        st.tuples(st.just("tear"), st.integers(0, len(TEARS) - 1)),
        st.just(("rewrite", 0)),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(ops=_log_ops)
def test_record_log_keeps_every_append_whole(ops):
    with tempfile.TemporaryDirectory() as tmp:
        log = RecordLog(Path(tmp) / "log" / "records.jsonl")
        appended = []
        torn_batches = []

        def intact():
            return [line for line in log.lines() if line in appended]

        def crash_with(data):
            # The writer dies; whatever bytes it had written remain.
            log.close()
            log.path.parent.mkdir(parents=True, exist_ok=True)
            with open(log.path, "ab") as handle:
                handle.write(data)

        for op, arg in ops:
            if op == "append":
                record = json.dumps({"record": len(appended)}).encode("utf-8")
                log.append(record)
                appended.append(record)
            elif op == "batch":
                batch = [
                    json.dumps({"record": len(appended) + n}).encode("utf-8")
                    for n in range(arg)
                ]
                log.append_many(batch)
                appended.extend(batch)
            elif op == "torn-batch":
                size, fraction = arg
                batch = [
                    json.dumps({"torn": len(torn_batches), "n": n}).encode("utf-8")
                    for n in range(size)
                ]
                # The batch is written, then the bytes past the crash
                # point are lost.
                log.append_many(batch)
                log.close()
                lost = len(b"".join(record + b"\n" for record in batch))
                size = log.path.stat().st_size
                os.truncate(log.path, size - lost + int(fraction * lost))
                torn_batches.append(batch)
            elif op == "tear":
                crash_with(TEARS[arg])
            elif log.path.exists():
                log.rewrite(intact())
        log.close()
        lines = log.lines() if log.path.exists() else []

        # Every record of every completed append or batch is a readable
        # line, in append order ...
        assert [line for line in lines if line in appended] == appended
        # ... and no torn tail ever merged with the record after it.
        for line in lines:
            if line not in appended:
                assert not any(record in line for record in appended)
        # A torn batch leaves an intact prefix of its records.
        for batch in torn_batches:
            survivors = [record for record in batch if record in lines]
            assert survivors == batch[: len(survivors)]
        # Rewriting the intact lines is idempotent on the bytes.
        if log.path.exists():
            log.rewrite(intact())
            once = log.path.read_bytes()
            log.rewrite(intact())
            assert log.path.read_bytes() == once


def test_file_lock_shared_holder_blocks_exclusive(tmp_path):
    sidecar = tmp_path / "journal.lock"
    appender, maintainer = FileLock(sidecar), FileLock(sidecar)
    assert appender.acquire(shared=True)
    assert maintainer.acquire() is False
    appender.release()
    assert maintainer.acquire() is True
    maintainer.release()


def test_load_whose_wanted_set_misses_decodes_no_blob(tmp_path, monkeypatch):
    with CheckpointJournal(tmp_path) as journal:
        journal.record_many([(f"cell-{n}", {"cell": n}) for n in range(5)])
    decoded = []
    original = checkpoint._decode_record
    monkeypatch.setattr(
        checkpoint,
        "_decode_record",
        lambda line, wanted=None: decoded.append(line) or original(line, wanted),
    )
    assert CheckpointJournal(tmp_path).load({"cell-absent"}) == {}
    assert decoded == []
    # A wanted record is still decoded in full, checksum and all.
    assert CheckpointJournal(tmp_path).load({"cell-3"}) == {"cell-3": {"cell": 3}}
    assert len(decoded) == 1
