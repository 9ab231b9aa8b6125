"""Campaign checkpointing: content-addressed, crash-consistent journals.

Long sweeps (Figure 8, robustness, fault campaigns) are exactly the
workloads that must survive partial failure rather than rerun: a journal
turns ``run_many(..., checkpoint=dir)`` into a resumable operation.  Two
pieces:

* :func:`spec_fingerprint` — a SHA-256 over a *canonical payload* of one
  :class:`~repro.experiments.runner.RunSpec`, in the same idiom as the
  service's query fingerprint (:mod:`repro.service.fingerprint`): every
  float is rendered ``repr``-exact, tasks are sorted by name, and every
  knob that determines the cell's result participates.  Two specs with
  equal fingerprints produce bit-identical results, so a journal entry
  *is* the answer.  Cells whose scheduler / fault layer / execution
  model are opaque callables cannot be content-addressed and return
  ``None`` — they simply run uncheckpointed.
* :class:`CheckpointJournal` — an append-only JSONL file of completed
  cells.  Each record carries the fingerprint, a pickled result blob,
  and a checksum over the blob; records are flushed and fsynced before
  the cell counts as committed, so a SIGKILL at any instant leaves at
  worst one torn trailing line, which :meth:`~CheckpointJournal.load`
  skips.  A corrupt record degrades to recomputing that cell — never to
  serving a wrong result (checksum mismatch → miss, the cache idiom).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner ← checkpoint)
    from .runner import RunSpec

#: Bumped whenever the canonical payload layout or the journal record
#: format changes, so stale journals can never alias a new fingerprint.
#: v2: the payload gained the ``execution`` key (exact vs fast kernel
#: path), so pre-fast-path journals can never satisfy a fast cell.
JOURNAL_VERSION = 2

#: Journal file name inside a checkpoint directory.
JOURNAL_NAME = "journal.jsonl"


def _num(value: float) -> str:
    """Canonical string form of one numeric parameter (``repr``-exact)."""
    return repr(float(value))


def _protocol_payload(obj: Any) -> Optional[Dict[str, Any]]:
    """The ``checkpoint_payload()`` self-description of *obj*, if any.

    The protocol is duck-typed: any callable slot (scheduler factory,
    fault factory) may expose a zero-arg ``checkpoint_payload`` method
    returning a JSON-ready dict that *fully determines* what the factory
    builds.  The dict must carry a ``"factory"`` discriminator so it can
    never alias a plain registry-name scheduler or a described
    :class:`~repro.faults.layer.FaultLayer`.  Anything else — a missing
    method, a non-dict return, a dict without the discriminator — means
    the object stays opaque (``None``).
    """
    describe = getattr(obj, "checkpoint_payload", None)
    if not callable(describe):
        return None
    try:
        payload = describe()
    except Exception:  # noqa: BLE001 - a broken self-description = opaque
        return None
    if not isinstance(payload, dict) or "factory" not in payload:
        return None
    return payload


def _describe_faults(faults: Any) -> Optional[Dict[str, Any]]:
    """Canonical description of a cell's fault layer, or ``None`` if opaque.

    A :class:`~repro.faults.layer.FaultLayer` is content-addressed by its
    seed, its guard configuration, and each injector's type, intensity,
    and (for targeted injectors) task filter — the fields that fully
    determine the injected fault sequence under the PR-1 seeding
    contract.  A zero-arg *factory* is opaque **unless** it implements
    the ``checkpoint_payload()`` protocol — a method returning the
    JSON-ready dict that fully determines what it builds (the scenario
    runner's fault factory does; see
    :meth:`repro.scenarios.runner._FaultFactory.checkpoint_payload`).
    Opaque cells still run, just never from a journal.
    """
    from ..faults.injector import Injector
    from ..faults.layer import FaultLayer

    if faults is None:
        return None
    if not isinstance(faults, FaultLayer):
        return _protocol_payload(faults)  # factory: addressable iff it says so
    injectors = []
    for injector in faults.injectors:
        if type(injector).perturb_demand is not Injector.perturb_demand and (
            getattr(injector, "jobs", None) is not None
        ):
            # ScriptedOverrun-style: the explicit job map is the content.
            extra: Any = sorted(
                (name, _num(factor)) for name, factor in injector.jobs.items()
            )
        else:
            tasks = getattr(injector, "tasks", None)
            extra = sorted(tasks) if tasks is not None else None
        injectors.append(
            {
                "type": type(injector).__name__,
                "name": injector.name,
                "intensity": _num(injector.intensity),
                "extra": extra,
            }
        )
    guards = faults.guards
    return {
        "seed": int(faults.seed),
        "guards": {
            "overrun_watchdog": bool(guards.overrun_watchdog),
            "sleep_guard": bool(guards.sleep_guard),
            "miss_policy": guards.miss_policy,
        },
        "injectors": injectors,
    }


def canonical_spec_payload(spec: "RunSpec") -> Optional[Dict[str, Any]]:
    """The canonical JSON-ready payload :func:`spec_fingerprint` hashes.

    Returns ``None`` when the spec is not content-addressable (a
    callable scheduler factory or fault-layer factory that does not
    implement ``checkpoint_payload()``, or an execution model whose
    ``repr`` does not pin its parameters).
    """
    scheduler: Any
    if isinstance(spec.scheduler, str):
        scheduler = spec.scheduler
    else:
        # A factory slot (e.g. the scenario runner's per-cell jcl
        # builder) is addressable iff it self-describes; the dict form
        # cannot collide with a registry-name string in canonical JSON.
        scheduler = _protocol_payload(spec.scheduler)
        if scheduler is None:
            return None
    if spec.faults is not None:
        faults = _describe_faults(spec.faults)
        if faults is None:
            return None
    else:
        faults = None
    model = spec.execution_model
    # Models pin themselves via their parameter-complete reprs
    # (``GaussianModel()``, ``BimodalModel(p_short=0.8, spread=0.05)``);
    # a default-object repr (``<... at 0x...>``) is not stable content.
    model_repr = None if model is None else repr(model)
    if model_repr is not None and "0x" in model_repr:
        return None
    tasks = []
    for task in sorted(spec.taskset, key=lambda t: t.name):
        tasks.append(
            {
                "name": task.name,
                "wcet": _num(task.wcet),
                "period": _num(task.period),
                "deadline": _num(task.deadline),
                "bcet": _num(task.bcet),
                "phase": _num(task.phase),
                "priority": None if task.priority is None else int(task.priority),
            }
        )
    spec_proc = spec.spec
    return {
        "v": JOURNAL_VERSION,
        "taskset": spec.taskset.name,
        "tasks": tasks,
        "scheduler": scheduler,
        "seed": int(spec.seed),
        "processor": None if spec_proc is None else repr(spec_proc),
        "execution_model": model_repr,
        "duration": None if spec.duration is None else _num(spec.duration),
        "on_miss": spec.on_miss,
        "scheduler_overhead": _num(spec.scheduler_overhead),
        "faults": faults,
        "record_trace": bool(spec.record_trace),
        "execution": spec.execution,
    }


def spec_fingerprint(spec: "RunSpec") -> Optional[str]:
    """SHA-256 hex digest of one cell's canonical payload — the journal key.

    ``None`` means the cell cannot be content-addressed and must always
    recompute.
    """
    payload = canonical_spec_payload(spec)
    if payload is None:
        return None
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _decode_record(
    line: bytes, wanted: Optional[Set[str]] = None
) -> Optional[Tuple[str, bytes]]:
    """``(fingerprint, pickled payload)`` of one intact journal line, else
    ``None`` — the acceptance rules load, GC and scrub share.  A record
    outside *wanted* is dropped before its blob is decoded."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None  # torn write (the crash-consistency contract)
    if not isinstance(record, dict) or record.get("v") != JOURNAL_VERSION:
        return None
    fp = record.get("fp")
    blob = record.get("blob")
    if not isinstance(fp, str) or not isinstance(blob, str):
        return None
    if wanted is not None and fp not in wanted:
        return None
    try:
        payload = base64.b64decode(blob.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError):
        return None
    if hashlib.sha256(payload).hexdigest() != record.get("sha"):
        return None  # corrupt → miss, never a wrong hit
    return fp, payload


class CheckpointJournal:
    """Append-only journal of completed campaign cells.

    One JSONL record per committed cell::

        {"v": 1, "fp": "<spec fingerprint>", "sha": "<sha256 of blob>",
         "blob": "<base64 pickled SimulationResult>"}

    Crash consistency comes from the write discipline (serialise →
    append → flush → fsync, in that order, one line per record) plus a
    tolerant reader: a torn trailing line, a checksum mismatch, or an
    unpicklable blob all degrade to recomputing that cell.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._handle = None

    # -- read ----------------------------------------------------------------
    def load(self, wanted: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Map of fingerprint → result for every intact journal record.

        Later records win (a cell journaled twice — e.g. by overlapping
        campaigns — is content-addressed, so the payloads are identical
        anyway).  Corrupt records are skipped, never trusted.

        *wanted* restricts the load to those fingerprints; the answer
        equals the full load filtered to *wanted*, at a campaign's cost.
        """
        results: Dict[str, Any] = {}
        needed = None if wanted is None else set(wanted)
        if needed is not None and not needed:
            return results
        try:
            raw = self.path.read_bytes()
        except OSError:
            return results
        # Newest first: the first intact record of a fingerprint is the
        # one that wins, and a restricted load stops once it has them all.
        for line in reversed(raw.splitlines()):
            decoded = _decode_record(line, needed)
            if decoded is None or decoded[0] in results:
                continue
            fp, payload = decoded
            try:
                results[fp] = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - any unpickling failure = miss
                continue
            if needed is not None:
                needed.discard(fp)
                if not needed:
                    break
        return results

    def __len__(self) -> int:
        """Number of intact records currently on disk."""
        return len(self.load())

    # -- write ---------------------------------------------------------------
    def record(self, fingerprint: str, result: Any) -> bool:
        """Append one completed cell; returns False if it cannot be stored.

        The record is durable (flushed + fsynced) before this returns,
        so a parent killed immediately afterwards still resumes past
        this cell.
        """
        try:
            payload = pickle.dumps(result)
        except Exception:  # noqa: BLE001 - unpicklable result: skip journaling
            return False
        record = {
            "v": JOURNAL_VERSION,
            "fp": fingerprint,
            "sha": hashlib.sha256(payload).hexdigest(),
            "blob": base64.b64encode(payload).decode("ascii"),
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a+b")
                # A crash mid-append can leave a torn tail with no
                # newline; appending straight after it would glue this
                # record onto the torn bytes and lose both.  Terminate
                # the tail so it becomes its own (skipped) line.
                self._handle.seek(0, os.SEEK_END)
                if self._handle.tell() > 0:
                    self._handle.seek(-1, os.SEEK_END)
                    if self._handle.read(1) != b"\n":
                        self._handle.write(b"\n")
            self._handle.write(line.encode("utf-8"))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            # A full or read-only disk demotes checkpointing to a no-op;
            # the campaign itself must keep running.
            return False
        return True

    def close(self) -> None:
        """Close the append handle; idempotent."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(frozen=True)
class JournalGcReport:
    """What ``gc_journal`` found (and, unless dry-run, rewrote)."""

    path: Path
    dry_run: bool
    lines_total: int       #: non-empty lines inspected
    kept: int              #: surviving records (one per fingerprint)
    superseded: int        #: intact records shadowed by a later duplicate
    corrupt: int           #: torn / checksum-mismatched / alien lines
    bytes_before: int
    bytes_after: int

    @property
    def dropped(self) -> int:
        return self.superseded + self.corrupt

    def render(self) -> str:
        action = "would rewrite" if self.dry_run else "rewrote"
        lines = [
            f"journal {self.path}",
            f"  records inspected:  {self.lines_total}",
            f"  kept:               {self.kept}",
            f"  dropped superseded: {self.superseded}",
            f"  dropped corrupt:    {self.corrupt}",
            f"  size:               {self.bytes_before} -> {self.bytes_after} "
            f"bytes ({action})",
        ]
        if self.dry_run:
            lines.append("  dry run: journal left untouched")
        return "\n".join(lines)


def gc_journal(
    directory: Union[str, Path], dry_run: bool = False
) -> JournalGcReport:
    """Compact a checkpoint journal: one intact record per fingerprint.

    The journal is append-only by design, so overlapping campaigns and
    crash-retry loops leave superseded duplicates and the odd torn tail
    behind; GC drops both and rewrites the file **atomically** (temp
    file + fsync + ``os.replace``), preserving the order in which each
    surviving fingerprint last appeared.  Results are content-addressed,
    so dropping an *earlier* duplicate can never change what
    :meth:`CheckpointJournal.load` returns — later records already won.

    Run it only while no campaign is appending to the journal: a
    concurrent appender's records landing between read and replace
    would be lost.

    ``dry_run=True`` computes the same report without touching the file.
    """
    from ..errors import ConfigurationError

    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"{directory} is not a checkpoint directory")
    path = directory / JOURNAL_NAME
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return JournalGcReport(
            path=path, dry_run=dry_run, lines_total=0, kept=0,
            superseded=0, corrupt=0, bytes_before=0, bytes_after=0,
        )
    lines_total = corrupt = superseded = 0
    #: fingerprint -> raw line; insertion order re-ordered to "last
    #: appearance" by delete-then-insert, matching load()'s later-wins.
    survivors: Dict[str, bytes] = {}
    for line in raw.splitlines():
        if not line.strip():
            continue
        lines_total += 1
        decoded = _decode_record(line)
        if decoded is None:
            corrupt += 1
            continue
        fp = decoded[0]
        if fp in survivors:
            superseded += 1
            del survivors[fp]
        survivors[fp] = line
    compacted = b"".join(line + b"\n" for line in survivors.values())
    report = JournalGcReport(
        path=path,
        dry_run=dry_run,
        lines_total=lines_total,
        kept=len(survivors),
        superseded=superseded,
        corrupt=corrupt,
        bytes_before=len(raw),
        bytes_after=len(compacted),
    )
    if dry_run:
        return report
    _atomic_rewrite(directory, path, compacted)
    return report


def _atomic_rewrite(directory: Path, path: Path, content: bytes) -> None:
    """Replace *path* with *content* via temp file + fsync + rename."""
    fd, tmp = tempfile.mkstemp(
        prefix=".journal.gc.", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class JournalScrubReport:
    """What :func:`scrub_journal` found (and, with repair, dropped)."""

    path: Path
    repair: bool
    records: int = 0      #: non-empty lines inspected
    intact: int = 0       #: lines passing the full record checksum
    corrupt: int = 0      #: torn / checksum-mismatched / alien lines
    dropped: int = 0      #: corrupt lines physically removed (repair)

    @property
    def clean(self) -> bool:
        return self.corrupt == 0

    def to_document(self) -> Dict[str, Any]:
        return {
            "kind": "journal-scrub",
            "path": str(self.path),
            "repair": self.repair,
            "records": self.records,
            "intact": self.intact,
            "corrupt": self.corrupt,
            "dropped": self.dropped,
        }

    def render(self) -> str:
        verdict = "clean" if self.clean else f"{self.corrupt} corrupt"
        tail = f", dropped {self.dropped}" if self.repair else ""
        return (
            f"journal scrub: {self.path}\n"
            f"  records {self.records}, intact {self.intact}{tail} — {verdict}"
        )


def scrub_journal(
    directory: Union[str, Path],
    repair: bool = False,
    obs: Any = None,
) -> JournalScrubReport:
    """Verify every record of a checkpoint journal.

    Applies the exact acceptance rules of :meth:`CheckpointJournal.load`
    line by line (version, field shapes, blob checksum) and reports the
    torn/corrupt remainder.  With ``repair=True`` the journal is
    rewritten **atomically** keeping only intact lines, verbatim and in
    order — unlike :func:`gc_journal` it never drops an intact record,
    superseded or not, so scrubbing commutes with compaction.  A missing
    journal is a clean no-op.  Like GC, repair must not race a live
    appender.

    Counters (when *obs* is an obs registry):
    ``cache.scrub_journal_records``, ``cache.scrub_journal_intact``,
    ``cache.scrub_journal_corrupt``, ``cache.scrub_journal_dropped``.
    """
    from ..obs.registry import DISABLED

    sink = obs if obs is not None else DISABLED
    directory = Path(directory)
    path = directory / JOURNAL_NAME
    try:
        raw = path.read_bytes()
    except (FileNotFoundError, OSError):
        return JournalScrubReport(path=path, repair=repair)
    records = intact = corrupt = 0
    survivors = []
    for line in raw.splitlines():
        if not line.strip():
            continue
        records += 1
        sink.count("cache.scrub_journal_records")
        if _decode_record(line) is None:
            corrupt += 1
            sink.count("cache.scrub_journal_corrupt")
            continue
        intact += 1
        sink.count("cache.scrub_journal_intact")
        survivors.append(line)
    dropped = 0
    if repair and corrupt:
        _atomic_rewrite(
            directory, path, b"".join(line + b"\n" for line in survivors)
        )
        dropped = corrupt
        sink.count("cache.scrub_journal_dropped", corrupt)
    return JournalScrubReport(
        path=path,
        repair=repair,
        records=records,
        intact=intact,
        corrupt=corrupt,
        dropped=dropped,
    )
