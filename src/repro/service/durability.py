"""Durable campaign state: write-ahead manifests + fsynced event logs.

The streamed-campaign path (``POST /v1/scenario`` → background runner →
``GET /v1/stream/{id}``) held everything in process memory before this
module: a replica crash discarded every computed cell and stranded SSE
clients mid-stream.  :class:`CampaignStore` gives the
:class:`~repro.service.stream.CampaignHub` a disk half, co-located with
the cell checkpoint journal (:mod:`repro.experiments.checkpoint`) inside
one checkpoint directory::

    <checkpoint-dir>/
        journal.jsonl                     # per-cell results (PR 5)
        campaigns/
            <id>.manifest.json            # write-ahead campaign intent
            <id>.events.jsonl             # the hub's ordered event log

Three durability rules, mirroring the journal's:

* **Write-ahead manifest** — the manifest (scenario fingerprint, full
  canonical document, grid size) is written atomically
  *before* the first cell runs, so a crash at any instant leaves either
  no campaign or a resumable one, never a half-registered one.
* **Durable-before-visible events** — an event is appended, flushed and
  fsynced to ``<id>.events.jsonl`` before subscribers see it, so a
  reconnecting client's ``?after=N`` cursor always refers to state that
  survives a crash.
* **Tolerant, prefix-exact reads** — each event line carries a checksum
  and a 1-based sequence number; :meth:`CampaignStore.load_events`
  returns the longest intact *gapless prefix* and discards everything
  after the first torn/corrupt/out-of-sequence line.  A lost suffix is
  recomputed from the cell journal; a corrupt line is never replayed.

Campaign identity is content-addressed: :func:`campaign_key` hashes the
scenario fingerprint, so re-submitting the same
scenario document reuses the same id — the idempotence that makes
resume-by-fingerprint work across restarts and replicas.

A checkpoint directory may be shared by a whole fleet of replicas, so
campaign *ownership* is cross-process: one ``flock``-ed sidecar lease
file per campaign (:meth:`CampaignStore.acquire_lease`).  Only the
lease holder may run a campaign's executor, append to its event log, or
rewrite/delete its files; a lease evaporates with its owner's process
(SIGKILL included), which is exactly the crash-recovery hand-off the
resume path needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..obs.registry import DISABLED

#: Version of the manifest document and the event record envelope.
MANIFEST_VERSION = 1
EVENT_VERSION = 1

#: Subdirectory of the checkpoint dir holding campaign state.
CAMPAIGNS_DIR = "campaigns"

#: Event kinds that close a campaign.  The hub re-exports this; it lives
#: here so the store can recognise finished campaigns without importing
#: the (higher-layer) hub.
TERMINAL_KINDS = ("done", "error")

#: Seconds a finished campaign's on-disk log outlives its terminal
#: event before :meth:`CampaignStore.gc` may collect it.
GC_RETENTION_S = 7 * 86_400.0

_MANIFEST_SUFFIX = ".manifest.json"
_EVENTS_SUFFIX = ".events.jsonl"
_LEASE_SUFFIX = ".lease"


def campaign_key(fingerprint: str) -> str:
    """Stable campaign id for one scenario fingerprint.

    The id is what ``GET /v1/stream/{id}`` takes, so it must survive a
    restart and be recomputable from the scenario document alone — a
    content hash is both.  The hashed document keeps the constant
    ``"execution": "exact"`` so ids minted before the kernel had a
    single path stay valid.
    """
    canon = json.dumps(
        {"execution": "exact", "fingerprint": fingerprint},
        sort_keys=True,
        separators=(",", ":"),
    )
    return "c" + hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _terminate_torn_tail(handle: Any) -> None:
    """Newline-terminate an append handle whose file ends mid-line.

    A crash mid-append can leave a torn tail with no newline; appending
    straight after it would glue the next record onto the torn bytes and
    lose both.  Terminating the tail turns the torn bytes into their own
    (skipped, GC-able) line so every later append stays intact.
    """
    handle.seek(0, os.SEEK_END)
    if handle.tell() == 0:
        return
    handle.seek(-1, os.SEEK_END)
    if handle.read(1) != b"\n":
        handle.write(b"\n")


def _event_checksum(seq: int, kind: str, data: Dict[str, Any]) -> str:
    canon = json.dumps(
        {"data": data, "kind": kind, "seq": seq},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class CampaignStore:
    """Disk half of the campaign hub: manifests + per-campaign event logs."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.campaigns_dir = self.directory / CAMPAIGNS_DIR
        self._handles: Dict[str, IO[bytes]] = {}
        self._leases: Dict[str, IO[bytes]] = {}

    # -- manifests -----------------------------------------------------------
    def manifest_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}{_MANIFEST_SUFFIX}"

    def events_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}{_EVENTS_SUFFIX}"

    def lease_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}{_LEASE_SUFFIX}"

    # -- cross-process ownership --------------------------------------------
    def acquire_lease(self, campaign_id: str) -> bool:
        """Take exclusive ownership of one campaign; False if owned elsewhere.

        Ownership is a non-blocking ``flock`` on a sidecar lease file.
        It conflicts across processes *and* across descriptors within
        one process (two stores over one directory behave like two
        replicas), and the kernel drops it the instant the owning
        process dies — so a SIGKILLed replica's campaigns become
        adoptable with no timeout dance.  Idempotent per store: a store
        that already holds the lease keeps it and answers True.
        """
        if campaign_id in self._leases:
            return True
        try:
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            handle = open(self.lease_path(campaign_id), "ab")
        except OSError:
            return False
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
        self._leases[campaign_id] = handle
        return True

    def release_lease(self, campaign_id: str) -> None:
        """Give up ownership of one campaign; idempotent."""
        handle = self._leases.pop(campaign_id, None)
        if handle is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
        except OSError:
            pass

    def owns_lease(self, campaign_id: str) -> bool:
        """Whether *this store* currently holds the campaign's lease."""
        return campaign_id in self._leases

    def write_manifest(
        self, campaign_id: str, manifest: Dict[str, Any]
    ) -> bool:
        """Atomically persist campaign intent; False on an unwritable disk."""
        document = {"v": MANIFEST_VERSION, "campaign_id": campaign_id}
        document.update(manifest)
        try:
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{campaign_id}.", suffix=".tmp",
                dir=str(self.campaigns_dir),
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, sort_keys=True)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.manifest_path(campaign_id))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def load_manifest(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """The manifest for *campaign_id*, or ``None`` if absent/corrupt."""
        try:
            document = json.loads(
                self.manifest_path(campaign_id).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if (
            not isinstance(document, dict)
            or document.get("v") != MANIFEST_VERSION
            or document.get("campaign_id") != campaign_id
        ):
            return None
        return document

    def list_manifests(self) -> Dict[str, Dict[str, Any]]:
        """Every intact manifest, keyed by campaign id, oldest first."""
        manifests: Dict[str, Dict[str, Any]] = {}
        if not self.campaigns_dir.is_dir():
            return manifests

        def mtime(path: Path) -> float:
            # A sibling replica may GC the file between glob and stat.
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        paths = sorted(
            self.campaigns_dir.glob(f"*{_MANIFEST_SUFFIX}"),
            key=lambda p: (mtime(p), p.name),
        )
        for path in paths:
            campaign_id = path.name[: -len(_MANIFEST_SUFFIX)]
            manifest = self.load_manifest(campaign_id)
            if manifest is not None:
                manifests[campaign_id] = manifest
        return manifests

    # -- event log -----------------------------------------------------------
    def append_event(self, campaign_id: str, event: Dict[str, Any]) -> bool:
        """Durably append one hub event; False on an unwritable disk.

        The record is flushed and fsynced before this returns — the
        durable-before-visible half of the reconnect contract.
        """
        record = event_record(event)
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            handle = self._handles.get(campaign_id)
            if handle is None:
                self.campaigns_dir.mkdir(parents=True, exist_ok=True)
                handle = open(self.events_path(campaign_id), "a+b")
                _terminate_torn_tail(handle)
                self._handles[campaign_id] = handle
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        except OSError:
            return False
        return True

    def load_events(self, campaign_id: str) -> List[Dict[str, Any]]:
        """The longest intact gapless event prefix for *campaign_id*.

        Reads stop at the first torn, checksum-mismatched, or
        out-of-sequence line: everything before it is exactly what a
        pre-crash subscriber could have seen; everything after it is
        recomputable from the cell journal and must not be trusted.
        """
        try:
            raw = self.events_path(campaign_id).read_bytes()
        except (FileNotFoundError, OSError):
            return []
        events: List[Dict[str, Any]] = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            record = _intact_event(line)
            if record is None or record["seq"] != len(events) + 1:
                break
            events.append(record)
        return events

    def repair_log(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Truncate one event log to its intact gapless prefix.

        Returns the intact prefix.  The adoption step: before a process
        that just took over a campaign (restart *or* live fleet
        hand-off) may append, any torn tail the previous owner's crash
        left behind must go — appending after a corrupt line would put
        every later event beyond the readable prefix.  The caller must
        own the campaign's lease (or be single-process); the rewrite is
        atomic and fsynced like the manifest writer's.
        """
        intact = self.load_events(campaign_id)
        try:
            raw = self.events_path(campaign_id).read_bytes()
        except FileNotFoundError:
            return intact
        except OSError:
            return intact
        raw_lines = [line for line in raw.splitlines() if line.strip()]
        if len(raw_lines) == len(intact):
            return intact
        self.close(campaign_id)
        content = b"".join(
            json.dumps(
                event_record(event), sort_keys=True, separators=(",", ":")
            ).encode("utf-8") + b"\n"
            for event in intact
        )
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=f".{campaign_id}.", suffix=".tmp",
                dir=str(self.campaigns_dir),
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(content)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.events_path(campaign_id))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass
        return intact

    def close(self, campaign_id: Optional[str] = None) -> None:
        """Close append handles (one campaign, or all); idempotent."""
        ids = [campaign_id] if campaign_id is not None else list(self._handles)
        for cid in ids:
            handle = self._handles.pop(cid, None)
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass

    # -- integrity -----------------------------------------------------------
    def scrub(self, repair: bool = False, obs: Any = None) -> Dict[str, Any]:
        """Verify every manifest and event log under the store.

        Event logs are checked against the prefix rule; with
        ``repair=True`` each log is truncated (atomically rewritten) to
        its intact prefix and corrupt manifests are quarantined by
        rename (``.corrupt`` suffix), so a later reader can never
        replay a broken record.  Rewrites are **lease-guarded**: a log
        whose campaign is owned by a live sibling process is never
        rewritten from under its open append handle — the repair is
        skipped and recorded as a problem instead (the owner terminates
        torn tails itself on its next append).  One unreadable file is
        one report entry, never an aborted scrub.  Counters:
        ``cache.scrub_manifests``, ``cache.scrub_manifest_corrupt``,
        ``cache.scrub_events``, ``cache.scrub_event_corrupt``,
        ``cache.scrub_events_truncated``.
        """
        sink = obs if obs is not None else DISABLED
        report = {
            "kind": "campaign-scrub",
            "directory": str(self.campaigns_dir),
            "repair": bool(repair),
            "manifests": 0,
            "manifests_corrupt": 0,
            "event_logs": 0,
            "events": 0,
            "events_corrupt": 0,
            "logs_truncated": 0,
            "problems": [],
        }
        if not self.campaigns_dir.is_dir():
            return report
        for path in sorted(self.campaigns_dir.glob(f"*{_MANIFEST_SUFFIX}")):
            campaign_id = path.name[: -len(_MANIFEST_SUFFIX)]
            report["manifests"] += 1
            sink.count("cache.scrub_manifests")
            if self.load_manifest(campaign_id) is None:
                report["manifests_corrupt"] += 1
                sink.count("cache.scrub_manifest_corrupt")
                report["problems"].append(
                    {"path": str(path), "reason": "corrupt-manifest"}
                )
                if repair:
                    try:
                        os.replace(path, path.with_suffix(".corrupt"))
                    except OSError:
                        pass
        for path in sorted(self.campaigns_dir.glob(f"*{_EVENTS_SUFFIX}")):
            campaign_id = path.name[: -len(_EVENTS_SUFFIX)]
            report["event_logs"] += 1
            try:
                raw = path.read_bytes()
            except OSError as exc:
                report["problems"].append(
                    {
                        "path": str(path),
                        "reason": f"unreadable:{type(exc).__name__}",
                    }
                )
                continue
            raw_lines = [line for line in raw.splitlines() if line.strip()]
            intact = self.load_events(campaign_id)
            report["events"] += len(raw_lines)
            for _ in raw_lines:
                sink.count("cache.scrub_events")
            corrupt = len(raw_lines) - len(intact)
            if not corrupt:
                continue
            report["events_corrupt"] += corrupt
            sink.count("cache.scrub_event_corrupt", corrupt)
            report["problems"].append(
                {
                    "path": str(path),
                    "reason": f"torn-suffix:{corrupt}-records",
                }
            )
            if not repair:
                continue
            owned = self.owns_lease(campaign_id)
            if not owned and not self.acquire_lease(campaign_id):
                report["problems"].append(
                    {"path": str(path), "reason": "repair-skipped:lease-held"}
                )
                continue
            try:
                repaired = self.repair_log(campaign_id)
                try:
                    still = [
                        line
                        for line in path.read_bytes().splitlines()
                        if line.strip()
                    ]
                except OSError:
                    still = None
                if still is not None and len(still) == len(repaired):
                    report["logs_truncated"] += 1
                    sink.count("cache.scrub_events_truncated")
            finally:
                if not owned:
                    self.release_lease(campaign_id)
        return report

    # -- retention -----------------------------------------------------------
    def gc(
        self,
        retention_s: float = GC_RETENTION_S,
        now: Optional[float] = None,
        obs: Any = None,
    ) -> Dict[str, Any]:
        """Collect finished campaigns older than *retention_s* seconds.

        A campaign is collectable when its event log ends in a terminal
        event and the log has not been appended to for *retention_s*
        seconds; its manifest, event log, and lease file are then
        deleted.  Running campaigns, recent ones, and anything whose
        lease a live process holds are left alone — GC can only ever
        reclaim state that a resubmission would regenerate from the
        cell journal anyway.  Counter: ``cache.gc_campaigns``.
        """
        sink = obs if obs is not None else DISABLED
        report = {
            "kind": "campaign-gc",
            "directory": str(self.campaigns_dir),
            "retention_s": retention_s,
            "scanned": 0,
            "removed": 0,
            "kept": 0,
        }
        if not self.campaigns_dir.is_dir():
            return report
        moment = time.time() if now is None else now
        ids = set()
        for suffix in (_MANIFEST_SUFFIX, _EVENTS_SUFFIX):
            for path in self.campaigns_dir.glob(f"*{suffix}"):
                ids.add(path.name[: -len(suffix)])
        for campaign_id in sorted(ids):
            report["scanned"] += 1
            events = self.load_events(campaign_id)
            terminal = bool(events) and events[-1]["kind"] in TERMINAL_KINDS
            try:
                age = moment - self.events_path(campaign_id).stat().st_mtime
            except OSError:
                age = None
            if (
                not terminal
                or age is None
                or age < retention_s
                or self.owns_lease(campaign_id)
                or not self.acquire_lease(campaign_id)
            ):
                report["kept"] += 1
                continue
            try:
                self.close(campaign_id)
                for path in (
                    self.events_path(campaign_id),
                    self.manifest_path(campaign_id),
                    self.lease_path(campaign_id),
                ):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            finally:
                self.release_lease(campaign_id)
            report["removed"] += 1
            sink.count("cache.gc_campaigns")
        return report


def event_record(event: Dict[str, Any]) -> Dict[str, Any]:
    """The on-disk record for one in-memory hub event."""
    return {
        "v": EVENT_VERSION,
        "seq": int(event["seq"]),
        "kind": event["kind"],
        "data": event["data"],
        "sha": _event_checksum(int(event["seq"]), event["kind"], event["data"]),
    }


def _intact_event(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode one event line, or ``None`` if torn/corrupt/alien."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or record.get("v") != EVENT_VERSION:
        return None
    seq = record.get("seq")
    kind = record.get("kind")
    data = record.get("data")
    if not isinstance(seq, int) or not isinstance(kind, str):
        return None
    if not isinstance(data, dict):
        return None
    if record.get("sha") != _event_checksum(seq, kind, data):
        return None
    return {"seq": seq, "kind": kind, "data": data}
