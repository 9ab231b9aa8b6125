"""The service client: retries, failover and stream resume over endpoints.

:class:`FleetClient` is the one client loop of the package.  Given one
URL it is the single-endpoint retrying client (``lpfps query --url``);
given the supervisor's replica URLs it fails over between them:

* **Round-robin** — each request starts one slot further around the
  ring, spreading load evenly across healthy replicas.
* **Ejection via circuit breakers** — every endpoint carries its own
  :class:`~repro.service.retry.CircuitBreaker`; consecutive transport
  failures open it and the ring walk skips the endpoint until its
  half-open probe succeeds.  A restarting replica rejoins automatically.
  A pass in which no breaker admits a try fails fast with
  :class:`~repro.service.retry.CircuitOpenError`.
* **Transparent re-issue on replica death** — a transport failure
  (connection refused, reset mid-response) moves straight to the next
  replica *without* backoff: re-issuing is provably safe because every
  query is content-addressed (:mod:`repro.service.fingerprint`) and
  idempotent — the answer is a pure function of the request, cache hits
  are bit-identical across replicas, and a half-computed answer on the
  dead replica at worst becomes a warm cache entry nobody reads.
* **Flow control is still an answer** — 503 means *shed, retry later*
  and 504 *the wait expired but the answer lands in the cache*; those
  back off (decorrelated jitter,
  :func:`~repro.service.retry.backoff_schedule`, floored at the
  server's ``retry_after_s`` hint under ``cap_s``) before the next ring
  pass, rather than hammering an overloaded service.
* **Streamed campaigns resume** — :meth:`FleetClient.resume_scenario`
  re-submits a scenario (idempotent under a checkpoint dir) and follows
  its stream from the last event seen, deduplicated by sequence number.

Clock-free and deterministic under test: the RNG behind the jitter, the
sleep, and the per-endpoint clients are all injectable.

Counters (``client.attempts``, ``client.retries``,
``client.transport_failures``, ``client.breaker_trips``,
``client.fast_fails``, ``client.retry_after_honored``,
``client.shed_seen``, ``client.exhausted``, ``client.stream_failovers``
and the ``client.backoff_s`` histogram) land in the thread-locally
installed obs registry (or an explicitly passed one); the same names
are instance attributes.
"""

from __future__ import annotations

import random
import threading
import time
import urllib.error
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ServiceError
from ..obs.registry import Registry, current
from .client import TRANSPORT_ERRORS, ServiceClient
from .stream import TERMINAL_KINDS
from .retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    backoff_schedule,
    retry_after_hint,
)


class _Target:
    """One endpoint: its client and its breaker."""

    def __init__(self, url: str, client: Any, breaker: CircuitBreaker):
        self.url = url
        self.client = client
        self.breaker = breaker


class FleetClient:
    """Retrying, failing-over client over one or more service endpoints.

    Callable with the ``SendFn`` shape — drop it straight into
    ``run_closed_loop`` / ``run_open_loop`` like any transport.

    Parameters
    ----------
    endpoints:
        Service base URLs: one for a single server, or the supervisor's
        :meth:`~repro.service.supervisor.FleetSupervisor.urls`.
    policy:
        Backoff/retry knobs; ``max_attempts`` counts *ring passes*, not
        individual endpoint tries, so one dead replica never consumes
        the whole budget.
    rng:
        Injectable :class:`random.Random` driving the backoff jitter —
        pass a seeded instance for deterministic tests.
    client_factory:
        ``url -> client`` with ``query``, ``submit_scenario`` and
        ``stream``; defaults to :class:`~repro.service.client.
        ServiceClient` over HTTP.  Injectable so unit tests can run an
        in-memory fleet.
    breaker_factory:
        Zero-arg factory for per-endpoint breakers.  The default is
        tuned for failover (3 failures, 2 s reset): a killed replica is
        ejected after three refused connections and re-probed about as
        fast as the supervisor can restart it.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        policy: Optional[RetryPolicy] = None,
        timeout_s: float = 120.0,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        client_factory: Optional[Callable[[str], Any]] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        obs: Optional[Registry] = None,
    ):
        if not endpoints:
            raise ConfigurationError("endpoints must name at least one replica")
        if client_factory is None:
            client_factory = lambda url: ServiceClient(url, timeout_s=timeout_s)
        if breaker_factory is None:
            breaker_factory = lambda: CircuitBreaker(
                failure_threshold=3, reset_timeout_s=2.0
            )
        self.policy = policy if policy is not None else RetryPolicy()
        self._targets = [
            _Target(url, client_factory(url), breaker_factory())
            for url in endpoints
        ]
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._obs = obs
        self._lock = threading.Lock()
        self._cursor = 0
        self.attempts = 0
        self.retries = 0
        self.transport_failures = 0
        self.breaker_trips = 0
        self.fast_fails = 0
        self.retry_after_honored = 0
        self.shed_seen = 0
        self.exhausted = 0
        self.stream_failovers = 0
        self.backoff_s = 0.0

    @property
    def failovers(self) -> int:
        """Alias of :attr:`transport_failures`, as EXP-F1 reports it."""
        return self.transport_failures

    def _registry(self) -> Registry:
        return self._obs if self._obs is not None else current()

    def _count(self, obs: Registry, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        obs.count("client." + name)

    def _transport_failure(self, obs: Registry, target: _Target) -> None:
        self._count(obs, "transport_failures")
        trips = target.breaker.trips
        target.breaker.record_failure()
        if target.breaker.trips > trips:
            self._count(obs, "breaker_trips")

    def _ring(self) -> List[_Target]:
        """The targets, rotated so each request starts one slot on."""
        with self._lock:
            start = self._cursor
            self._cursor = (self._cursor + 1) % len(self._targets)
        return self._targets[start:] + self._targets[:start]

    def breaker_states(self) -> Dict[str, str]:
        """Endpoint → breaker state, for dashboards and tests."""
        return {t.url: t.breaker.state for t in self._targets}

    def _send(
        self, operation: str, request: Dict[str, Any]
    ) -> Tuple[_Target, int, Dict[str, Any]]:
        """Call ``client.<operation>(request)`` with failover and retries.

        One *pass* walks the ring once, skipping endpoints whose breaker
        is open; transport failures within a pass fail over immediately.
        Between passes the client sleeps a decorrelated-jitter delay.
        Returns the answering target with its ``(status, payload)``:
        the first answer outside ``policy.retry_on``, or after
        ``policy.max_attempts`` passes the last flow-control answer.
        Raises :class:`CircuitOpenError` (chained from the call's last
        transport error) as soon as a pass finds no breaker admitting a
        try, or the last transport error when every pass failed.
        """
        obs = self._registry()
        policy = self.policy
        delays = backoff_schedule(policy, self._rng)
        last_response: Optional[Tuple[_Target, int, Dict[str, Any]]] = None
        last_error: Optional[BaseException] = None
        for ring_pass in range(policy.max_attempts):
            admitted = False
            for target in self._ring():
                if not target.breaker.allow():
                    continue
                admitted = True
                self._count(obs, "attempts")
                try:
                    status, payload = getattr(target.client, operation)(request)
                except TRANSPORT_ERRORS as exc:
                    self._transport_failure(obs, target)
                    last_error, last_response = exc, None
                    continue  # immediate failover: re-issue is idempotent
                target.breaker.record_success()
                if status not in policy.retry_on:
                    return target, status, payload
                if status == 503:
                    self._count(obs, "shed_seen")
                last_response, last_error = (target, status, payload), None
                break  # flow control: back off before the next pass
            if not admitted:
                self._count(obs, "fast_fails")
                cause = f" after {last_error!r}" if last_error else ""
                raise CircuitOpenError(
                    f"every endpoint's circuit breaker is open{cause}; "
                    "not calling"
                ) from last_error
            if ring_pass + 1 >= policy.max_attempts:
                break
            delay = next(delays)
            hint = (
                retry_after_hint(last_response[2])
                if policy.honor_retry_after and last_response is not None
                else None
            )
            if hint is not None and hint > delay:
                delay = min(policy.cap_s, hint)
                self._count(obs, "retry_after_honored")
            self._count(obs, "retries")
            self.backoff_s += delay
            obs.observe("client.backoff_s", delay, units="s")
            self._sleep(delay)
        if last_response is not None:
            return last_response
        self._count(obs, "exhausted")
        assert last_error is not None
        raise last_error

    def __call__(self, request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Send one query; returns the final ``(status, payload)``.

        A still-unsuccessful 503/504 after the last pass is *returned*,
        not raised — flow control is an answer.
        """
        _, status, payload = self._send("query", request)
        return status, payload

    # SendFn / ServiceClient name parity
    query = __call__

    def submit_scenario(
        self, request: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """POST a scenario through the same failover and retry loop.

        Re-issue is safe whenever the fleet shares a checkpoint dir: the
        campaign id is content-addressed from the scenario fingerprint.
        """
        _, status, payload = self._send("submit_scenario", request)
        return status, payload

    def resume_scenario(
        self,
        request: Dict[str, Any],
        after: int = 0,
        max_reconnects: int = 16,
        reconnect_delay_s: float = 0.5,
    ) -> Iterator[Dict[str, Any]]:
        """Submit a scenario and stream it to completion, crash or not.

        Each (re)attachment re-submits the scenario through the failover
        loop — idempotent when the server runs with a checkpoint dir, so
        it attaches to the running campaign, returns the finished one,
        or resumes a crashed one on any replica — then follows its
        stream from the last event this generator has already yielded.
        A dropped stream (one ``client.stream_failovers`` count and a
        breaker failure), a dead or restarting fleet, or an HTTP error
        answer on the stream (410 for an evicted campaign: re-POSTing
        re-attaches, as its resume hint says) costs one reconnect from
        the budget; any yielded event refills it.  Events are
        deduplicated by sequence number, so the caller sees one gapless,
        duplicate-free sequence ending in the terminal ``done``/``error``
        event.

        *after* starts past events already consumed (e.g. by an earlier
        process).  Raises :class:`~repro.errors.ServiceError` on a
        non-200 submission (a malformed scenario never resolves itself)
        or when the reconnect budget is exhausted.
        """
        obs = self._registry()
        last_seen = int(after)
        failures = 0
        while True:
            target = None
            try:
                target, status, payload = self._send("submit_scenario", request)
                if status != 200:
                    raise ServiceError(
                        f"scenario submission failed ({status}): "
                        f"{payload.get('error', payload)}"
                    )
                for event in target.client.stream(
                    payload["campaign_id"], after=last_seen
                ):
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if seq <= last_seen:
                            continue  # duplicate from an overlapping replay
                        last_seen = seq
                    failures = 0
                    yield event
                    if event.get("kind") in TERMINAL_KINDS:
                        return
                # Stream closed without a terminal event: the server is
                # draining or the subscriber idled out — reconnect.
            except urllib.error.HTTPError:
                pass  # the endpoint answered; its transport is healthy
            except TRANSPORT_ERRORS + (CircuitOpenError,):
                if target is not None:  # the stream dropped mid-way
                    self._transport_failure(obs, target)
                    self._count(obs, "stream_failovers")
            failures += 1
            if failures > max_reconnects:
                last = target.url if target is not None else None
                raise ServiceError(
                    f"campaign stream lost after {max_reconnects} "
                    f"reconnects (last endpoint: {last})"
                )
            self.backoff_s += reconnect_delay_s
            self._sleep(reconnect_delay_s)
