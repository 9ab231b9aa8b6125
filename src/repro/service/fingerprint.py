"""Canonical content fingerprinting of service queries.

The cache key for a query is a SHA-256 over a *canonical payload* — a
JSON rendering in which every degree of freedom that cannot change the
answer has been normalised away:

* **energy queries** are campaign cells: the key is the cell's journal
  key, :func:`repro.experiments.checkpoint.spec_fingerprint` of
  :meth:`Query.to_runspec`.  It covers the task-set name the answer
  reports, so an inline copy of a registry workload keys apart from
  the registry name (their answers differ in ``taskset``);
* **analytic kinds** depend on the kind and the task list alone, so
  an inline copy of a registry workload keys like its registry name;
* **task order** — tasks are sorted by name; the answer depends on the
  (name → parameters, priority) mapping, never on list order.  The task
  list is encoded by :func:`repro.experiments.checkpoint.canonical_tasks`,
  the one encoder journal keys and scenario fingerprints also use;
* **numeric representation** — every time parameter is rendered with
  ``repr(float(...))``, the shortest round-trip form, so ``2000``,
  ``2000.0``, ``2e3``, and a request phrased as ``2`` ms (scaled to µs
  at parse time) all canonicalise to the string ``'2000.0'``.

Two queries with equal fingerprints are therefore guaranteed to produce
bit-identical payloads, which is what lets the cache and the in-flight
dedupe serve one computation to many callers.
"""

from __future__ import annotations

from typing import Any, Dict

from ..experiments.checkpoint import canonical_spec_payload, canonical_tasks
from ..store import canonical_sha256
from .query import Query

#: Bumped whenever the analytic payload layout changes, so stale disk
#: cache entries from older layouts can never alias a new fingerprint.
FINGERPRINT_VERSION = 1


def taskset_fingerprint(taskset) -> str:
    """SHA-256 over the canonical task list alone (the workload identity)."""
    return canonical_sha256(
        {"v": FINGERPRINT_VERSION, "tasks": canonical_tasks(taskset)}
    )


def canonical_payload(query: Query) -> Dict[str, Any]:
    """The canonical, JSON-ready payload the fingerprint hashes.

    An energy query's is its cell's journal payload.  An analytic
    query's holds the kind and the tasks; its constant fields keep the
    keys the layout had when every kind carried simulation knobs.
    """
    if query.kind == "energy":
        return canonical_spec_payload(query.to_runspec())
    return {
        "v": FINGERPRINT_VERSION,
        "kind": query.kind,
        "tasks": canonical_tasks(query.taskset),
        "scheduler": "rta",
        "seed": 0,
        "duration": None,
        "execution": "wcet",
        "record_trace": False,
    }


def fingerprint(query: Query) -> str:
    """SHA-256 hex digest of the canonical payload — the cache key."""
    return canonical_sha256(canonical_payload(query))
