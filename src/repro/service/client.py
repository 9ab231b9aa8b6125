"""HTTP client and load generators for the scheduling service.

The client speaks the ``/v1`` JSON protocol over ``urllib`` (no
third-party deps).  The load generators drive *any* transport — they
take a ``send(request) -> (status, payload)`` callable — so the same
harness measures the HTTP stack end-to-end or the broker in-process:

* **closed loop** — ``concurrency`` virtual users issue requests
  back-to-back; throughput is limited by service latency (measures
  capacity).
* **open loop** — requests arrive on a fixed schedule at ``rate_rps``
  regardless of completions (measures behaviour under offered load, the
  regime where admission control matters; a closed loop can never
  overload the service, an open loop can).
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .stream import parse_sse

#: A transport: JSON request dict in, (HTTP-like status, payload) out.
SendFn = Callable[[Dict[str, Any]], Tuple[int, Dict[str, Any]]]

#: Failures meaning the endpoint gave no answer: socket-level errors
#: (``urllib``'s ``URLError``, ``ConnectionError`` and ``TimeoutError``
#: are ``OSError``s) plus protocol-level carnage from a SIGKILL
#: mid-response.  Retryable, and counted by circuit breakers.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples* by linear interpolation."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class ServiceClient:
    """Minimal JSON client for one service base URL.

    The HTTP transport only: no retries.  Wrap it in a one-URL
    :class:`~repro.service.fleet.FleetClient` for backoff, a circuit
    breaker and stream resume.
    """

    def __init__(self, url: str, timeout_s: float = 120.0):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(
        self, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """GET *path*, or POST *body* to it as JSON.

        Returns ``(status, payload)`` for every HTTP answer, error
        statuses included; raises only on transport failures.
        """
        data = None if body is None else json.dumps(body).encode("utf-8")
        http_request = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                http_request, timeout=self.timeout_s
            ) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, _body_of(exc)

    def _get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        return self._request(path)

    def query(self, request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """POST one query; returns ``(status, payload)``, raising only on
        transport (socket-level) failures."""
        return self._request("/v1/query", request)

    def health(self) -> Tuple[int, Dict[str, Any]]:
        return self._get("/v1/health")

    def metrics(self) -> Tuple[int, Dict[str, Any]]:
        return self._get("/v1/metrics")

    def submit_scenario(
        self, request: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """POST a scenario campaign (``{"pack": name}`` or inline doc)."""
        return self._request("/v1/scenario", request)

    def stream(
        self, campaign_id: str, after: int = 0
    ) -> Iterator[Dict[str, Any]]:
        """Follow ``/v1/stream/{campaign_id}`` as parsed SSE events.

        Yields hub-shaped events (``{"seq", "kind", "data"}``) until the
        server closes the stream after the terminal ``done``/``error``
        event.  Raises :class:`urllib.error.HTTPError` on non-200 (e.g.
        an unknown campaign id).
        """
        response = urllib.request.urlopen(
            f"{self.url}/v1/stream/{campaign_id}?after={int(after)}",
            timeout=self.timeout_s,
        )
        try:
            lines = (line.decode("utf-8") for line in response)
            for event in parse_sse(lines):
                yield event
        finally:
            response.close()


def _body_of(exc: urllib.error.HTTPError) -> Dict[str, Any]:
    """Decode an error response, folding useful headers into the payload.

    A shed response's ``Retry-After`` header is mirrored into the body
    as ``retry_after_s`` when the server did not already include it, so
    transports that only surface ``(status, payload)`` — the load
    generators, :class:`~repro.service.fleet.FleetClient` — still see
    the server's pacing hint.
    """
    try:
        payload = json.loads(exc.read().decode("utf-8"))
    except (ValueError, UnicodeDecodeError, OSError):
        payload = {"ok": False, "error": str(exc)}
    if isinstance(payload, dict) and "retry_after_s" not in payload:
        header = exc.headers.get("Retry-After") if exc.headers else None
        if header is not None:
            try:
                payload["retry_after_s"] = float(header)
            except ValueError:
                pass  # RFC also allows HTTP-dates; ignore those
    return payload


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    requests: int = 0
    ok: int = 0
    shed: int = 0          #: 503 — dropped by admission control
    timeouts: int = 0      #: 504 — per-request deadline expired
    failures: int = 0      #: anything else non-200
    wall_s: float = 0.0
    #: Worst lateness of an open-loop arrival vs its schedule, seconds
    #: (0 for closed loops); large slip means the generator, not the
    #: service, was the bottleneck and the run under-offered.
    max_slip_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return self.requests / self.wall_s

    @property
    def dropped(self) -> int:
        """Requests that got no answer: shed + timed out + failed."""
        return self.shed + self.timeouts + self.failures

    def latency_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, float]:
        return {
            f"p{int(q * 100)}": percentile(self.latencies_s, q) for q in quantiles
        }

    def _count(self, status: int, latency_s: float, lock: threading.Lock) -> None:
        with lock:
            self.requests += 1
            self.latencies_s.append(latency_s)
            if status == 200:
                self.ok += 1
            elif status == 503:
                self.shed += 1
            elif status == 504:
                self.timeouts += 1
            else:
                self.failures += 1


def _run_load(
    send: SendFn,
    requests: Sequence[Dict[str, Any]],
    threads: int,
    rate_rps: Optional[float] = None,
) -> LoadReport:
    """Issue *requests* from ``threads`` workers, each taking the next
    request as soon as it is free.  With *rate_rps*, request *i* also
    waits for its arrival time ``i / rate_rps``; without, it goes at
    once (a closed loop)."""
    report = LoadReport()
    lock = threading.Lock()
    epoch = time.perf_counter()
    cursor = iter(range(len(requests)))

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            if rate_rps is not None:
                delay = epoch + index / rate_rps - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                else:
                    with lock:
                        report.max_slip_s = max(report.max_slip_s, -delay)
            start = time.perf_counter()
            status, _ = send(requests[index])
            report._count(status, time.perf_counter() - start, lock)

    pool = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, threads))
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    report.wall_s = time.perf_counter() - epoch
    return report


def run_closed_loop(
    send: SendFn,
    requests: Sequence[Dict[str, Any]],
    concurrency: int = 4,
) -> LoadReport:
    """Drive *requests* with ``concurrency`` back-to-back virtual users."""
    return _run_load(send, requests, concurrency)


def run_open_loop(
    send: SendFn,
    requests: Sequence[Dict[str, Any]],
    rate_rps: float,
    workers: int = 32,
) -> LoadReport:
    """Offer *requests* at a fixed arrival rate, regardless of completions.

    Arrival *i* is scheduled at ``i / rate_rps`` seconds; a worker pool
    wide enough to cover the expected outstanding count executes them.
    ``max_slip_s`` reports how far the generator fell behind its own
    schedule — sanity-check it stays small, or the run measured the
    generator.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    return _run_load(send, requests, workers, rate_rps)


def broker_send(service) -> SendFn:
    """An in-process transport over a :class:`ScheduleService`.

    Maps service exceptions to the same status codes the HTTP layer
    uses, so load reports are comparable across transports.
    """
    from .broker import AdmissionError, RequestTimeout
    from .query import QueryError

    def send(request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, service.query_dict(request)
        except QueryError as exc:
            return 400, {"ok": False, "error": str(exc)}
        except AdmissionError as exc:
            shed = {"ok": False, "error": str(exc)}
            if exc.queue_depth is not None:
                shed["queue_depth"] = exc.queue_depth
            if exc.retry_after_s is not None:
                shed["retry_after_s"] = exc.retry_after_s
            return 503, shed
        except RequestTimeout as exc:
            return 504, {"ok": False, "error": str(exc)}

    return send
