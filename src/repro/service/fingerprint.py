"""Canonical content fingerprinting of service queries.

The cache key for a query is a SHA-256 over a *canonical payload* — a
JSON rendering in which every degree of freedom that cannot change the
answer has been normalised away:

* **task order** — tasks are sorted by name; the answer depends on the
  (name → parameters, priority) mapping, never on list order.  The task
  list is encoded by :func:`repro.experiments.checkpoint.canonical_tasks`,
  the one encoder journal keys and scenario fingerprints also use;
* **numeric representation** — every time parameter is rendered with
  ``repr(float(...))``, the shortest round-trip form, so ``2000``,
  ``2000.0``, ``2e3``, and a request phrased as ``2`` ms (scaled to µs
  at parse time) all canonicalise to the string ``'2000.0'``;
* **irrelevant knobs** — :func:`repro.service.query.build_query` zeroes
  scheduler/seed/horizon for analytic kinds before the fingerprint is
  taken.

Two queries with equal fingerprints are therefore guaranteed to produce
bit-identical payloads, which is what lets the cache and the in-flight
dedupe serve one computation to many callers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from ..experiments.checkpoint import _num, canonical_tasks
from .query import Query

#: Bumped whenever the canonical payload layout changes, so stale disk
#: cache entries from older layouts can never alias a new fingerprint.
FINGERPRINT_VERSION = 1


def taskset_fingerprint(taskset) -> str:
    """SHA-256 over the canonical task list alone (the workload identity)."""
    canonical = json.dumps(
        {"v": FINGERPRINT_VERSION, "tasks": canonical_tasks(taskset)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def canonical_payload(query: Query) -> Dict[str, Any]:
    """The canonical, JSON-ready payload the fingerprint hashes."""
    return {
        "v": FINGERPRINT_VERSION,
        "kind": query.kind,
        "tasks": canonical_tasks(query.taskset),
        "scheduler": query.scheduler,
        "seed": int(query.seed),
        "duration": None if query.duration is None else _num(query.duration),
        "execution": query.execution,
        "record_trace": bool(query.record_trace),
    }


def fingerprint(query: Query) -> str:
    """SHA-256 hex digest of the canonical payload — the cache key."""
    canonical = json.dumps(
        canonical_payload(query), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
