"""Scheduling-as-a-service: serve schedulability/energy queries at scale.

The ROADMAP's north star is a system that serves heavy repeated traffic;
this package is the serving layer on top of the simulation kernel and
the analysis substrate.  The pieces compose bottom-up:

* :mod:`~repro.service.query` — the query model: one frozen
  :class:`~repro.service.query.Query` per request, parsed from JSON with
  time-unit normalisation, resolved to a concrete prioritised task set.
* :mod:`~repro.service.fingerprint` — canonical, order- and
  unit-invariant content fingerprinting of queries; the cache key.
* :mod:`~repro.service.cache` — the content-addressed result cache:
  an in-memory LRU tier over an on-disk tier.
* :mod:`~repro.service.results` — query execution and bit-exact result
  encoding (``repr`` floats, golden digests for traced runs).
* :mod:`~repro.service.broker` — the async request broker: admission
  control, in-flight dedupe, micro-batching of cache misses onto
  :func:`repro.experiments.runner.run_many`, per-request timeouts.
* :mod:`~repro.service.server` — the stdlib HTTP front end
  (``lpfps serve``).
* :mod:`~repro.service.client` — the HTTP transport plus closed- and
  open-loop load generators (``benchmarks/bench_service.py``).
* :mod:`~repro.service.retry` — the client's resilience policy:
  decorrelated-jitter backoff, circuit breaker, Retry-After hint.
* :mod:`~repro.service.supervisor` — the fleet supervisor: spawn N
  server replicas over one shared cache, probe them, restart crashed
  ones under an exponential-backoff budget, quarantine crash-loopers,
  and SIGTERM-drain on shutdown (``lpfps fleet``).
* :mod:`~repro.service.fleet` — the one retrying client, for one URL or
  a fleet: round-robin over endpoints, per-endpoint circuit-breaker
  ejection, backoff on flow control, transparent re-issue of
  (content-addressed, idempotent) queries on replica death, and
  resume-by-sequence of streamed campaigns
  (``benchmarks/bench_fleet.py``).

The service guarantees *bit-identity*: a cache hit returns exactly the
payload a fresh simulation would produce, pinned by the golden-trace
digest machinery (`tests/service/test_golden_equivalence.py`).
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AdmissionError",
    "Broker",
    "CircuitBreaker",
    "CircuitOpenError",
    "Query",
    "QueryError",
    "RequestTimeout",
    "ResultCache",
    "RetryPolicy",
    "ScheduleService",
    "ServiceGuards",
    "canonical_payload",
    "encode_result",
    "execute_analytic",
    "fingerprint",
    "parse_query",
    "serve_forever",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".broker": ("AdmissionError", "Broker", "RequestTimeout", "ServiceGuards"),
        ".cache": ("ResultCache",),
        ".fingerprint": ("canonical_payload", "fingerprint"),
        ".fleet": ("FleetClient",),
        ".query": ("Query", "QueryError", "parse_query"),
        ".results": ("encode_result", "execute_analytic"),
        ".retry": ("CircuitBreaker", "CircuitOpenError", "RetryPolicy"),
        ".server": ("ScheduleService", "serve_forever"),
        ".supervisor": ("FleetError", "FleetSupervisor", "RestartBudget"),
    },
)
