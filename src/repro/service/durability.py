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

Three durability rules, mirroring the journal's (the atomic write,
fsynced append and lease ``flock`` themselves live in
:mod:`repro.store`):

* **Write-ahead manifest** — the manifest (scenario fingerprint, full
  canonical document, grid size) is written atomically
  *before* the first cell runs, so a crash at any instant leaves either
  no campaign or a resumable one, never a half-registered one.
* **Durable-before-visible events** — each batch of events is appended,
  flushed and fsynced (once) to ``<id>.events.jsonl`` before
  subscribers see any of it, so a
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

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs.registry import DISABLED
from ..store import (
    QUARANTINE_DIR, FileLock, RecordLog, atomic_write, canonical_sha256, quarantine,
)

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
    return "c" + canonical_sha256({"execution": "exact", "fingerprint": fingerprint})[:16]


def _event_checksum(seq: int, kind: str, data: Dict[str, Any]) -> str:
    return canonical_sha256({"data": data, "kind": kind, "seq": seq})


class CampaignStore:
    """Disk half of the campaign hub: manifests + per-campaign event logs."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.campaigns_dir = self.directory / CAMPAIGNS_DIR
        self._logs: Dict[str, RecordLog] = {}
        self._leases: Dict[str, FileLock] = {}

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
        lease = FileLock(self.lease_path(campaign_id))
        try:
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            if not lease.acquire():
                return False
        except OSError:
            return False
        self._leases[campaign_id] = lease
        return True

    def release_lease(self, campaign_id: str) -> None:
        """Give up ownership of one campaign; idempotent."""
        lease = self._leases.pop(campaign_id, None)
        if lease is None:
            return
        try:
            lease.release()
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
        data = json.dumps(document, sort_keys=True).encode("utf-8")
        try:
            atomic_write(self.manifest_path(campaign_id), data)
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
        """Durably append one hub event; False on an unwritable disk."""
        return self.append_events(campaign_id, [event])

    def append_events(
        self, campaign_id: str, events: Sequence[Dict[str, Any]]
    ) -> bool:
        """Durably append hub *events* with one write and one fsync;
        False on an unwritable disk.

        The batch is flushed and fsynced before this returns — the
        durable-before-visible half of the reconnect contract.  A crash
        mid-write leaves an intact prefix of the batch, which the
        gapless-prefix reader accepts as it stands.
        """
        lines = [
            json.dumps(
                event_record(event), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            for event in events
        ]
        log = self._logs.get(campaign_id)
        if log is None:
            log = self._logs[campaign_id] = RecordLog(self.events_path(campaign_id))
        try:
            log.append_many(lines)
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
            lines = RecordLog(self.events_path(campaign_id)).lines()
        except OSError:
            return []
        return _intact_prefix(lines)

    def repair_log(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Truncate one event log to its intact gapless prefix.

        Returns the intact prefix.  The adoption step: before a process
        that just took over a campaign (restart *or* live fleet
        hand-off) may append, any torn tail the previous owner's crash
        left behind must go — appending after a corrupt line would put
        every later event beyond the readable prefix.  The caller must
        own the campaign's lease (or be single-process); the rewrite is
        atomic (:meth:`repro.store.RecordLog.rewrite`).
        """
        log = RecordLog(self.events_path(campaign_id))
        try:
            lines = log.lines()
        except OSError:
            return []
        intact = _intact_prefix(lines)
        if len(lines) == len(intact):
            return intact
        self.close(campaign_id)
        try:
            log.rewrite(lines[: len(intact)])
        except OSError:
            pass
        return intact

    def close(self, campaign_id: Optional[str] = None) -> None:
        """Close append handles (one campaign, or all); idempotent."""
        ids = [campaign_id] if campaign_id is not None else list(self._logs)
        for cid in ids:
            log = self._logs.pop(cid, None)
            if log is not None:
                try:
                    log.close()
                except OSError:
                    pass

    # -- integrity -----------------------------------------------------------
    def scrub(self, repair: bool = False, obs: Any = None) -> Dict[str, Any]:
        """Verify every manifest and event log under the store.

        Event logs are checked against the prefix rule; with
        ``repair=True`` each log is truncated (atomically rewritten) to
        its intact prefix and corrupt manifests are moved under
        ``campaigns/quarantine/`` (never overwriting an earlier
        quarantined copy), so a later reader can never replay a broken
        record.  Rewrites are **lease-guarded**: a log
        whose campaign is owned by a live sibling process is never
        rewritten from under its open append handle — the repair is
        skipped and recorded as a problem instead (the owner terminates
        torn tails itself on its next append).  One unreadable file is
        one report entry (an unreadable log also counts in
        ``logs_unreadable``), never an aborted scrub.  Counters:
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
            "logs_unreadable": 0,
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
                    quarantine(path, self.campaigns_dir / QUARANTINE_DIR)
        for path in sorted(self.campaigns_dir.glob(f"*{_EVENTS_SUFFIX}")):
            campaign_id = path.name[: -len(_EVENTS_SUFFIX)]
            report["event_logs"] += 1
            try:
                lines = RecordLog(path).lines()
            except OSError as exc:
                report["logs_unreadable"] += 1
                report["problems"].append(
                    {
                        "path": str(path),
                        "reason": f"unreadable:{type(exc).__name__}",
                    }
                )
                continue
            intact = _intact_prefix(lines)
            report["events"] += len(lines)
            for _ in lines:
                sink.count("cache.scrub_events")
            corrupt = len(lines) - len(intact)
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
                    still = RecordLog(path).lines()
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


def _intact_prefix(lines: List[bytes]) -> List[Dict[str, Any]]:
    """The longest gapless run of intact events at the start of *lines*."""
    events: List[Dict[str, Any]] = []
    for line in lines:
        record = _intact_event(line)
        if record is None or record["seq"] != len(events) + 1:
            break
        events.append(record)
    return events


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
