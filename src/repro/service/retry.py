"""Client-side resilience policy: backoff, circuit breaker, pacing hint.

The service's failure contract is explicit: 503 means *shed — the work
was never admitted, retry later*; 504 means *the wait expired but the
computation continues and its answer lands in the cache* — so a retry of
either is cheap and correct, provided clients back off instead of
hammering a service that just told them it is overloaded.

This module holds the pure parts of that policy; the one loop that
applies them is :class:`~repro.service.fleet.FleetClient`:

* **Decorrelated-jitter backoff** — each delay is drawn uniformly from
  ``[base, 3 * previous]`` and capped, which de-synchronises retrying
  clients (no thundering herd on the shared broker) while keeping the
  expected delay growing geometrically.  The schedule is a pure
  function of the injected RNG, and its total is provably bounded by
  ``(max_attempts - 1) * cap_s`` (property-tested).
* **A circuit breaker** — *transport* failures (socket errors; the
  service did not answer at all) are different from 503/504 (the
  service answered, with flow control): after ``failure_threshold``
  consecutive transport failures the breaker opens and calls fail fast
  with :class:`CircuitOpenError` instead of burning timeouts against a
  dead endpoint.  After ``reset_timeout_s`` it half-opens: exactly one
  probe is let through; its outcome closes or re-opens the circuit.
* **The Retry-After hint** — :func:`retry_after_hint` reads the
  server's ``retry_after_s`` pacing hint out of a flow-control payload.

Clock and RNG are injectable so tests are deterministic and
instantaneous.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple

from ..errors import ConfigurationError, ServiceError


class CircuitOpenError(ServiceError):
    """The circuit breaker is open; the call was not attempted."""

    kind = "overload"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff knobs for :class:`~repro.service.fleet.FleetClient`.

    ``retry_on`` lists the HTTP statuses worth retrying: by default the
    two flow-control answers (503 shed, 504 late-answer-cached).  Real
    errors (400, 500) and refusals return immediately — retrying a
    deterministic answer wastes everyone's time.

    ``honor_retry_after`` makes the client respect the server's pacing
    hint: when a retryable payload carries ``retry_after_s`` (the
    broker's drain estimate, mirrored from the ``Retry-After`` header),
    the next delay is at least that long — jitter still applies on top
    (the maximum of the two is used) and ``cap_s`` still bounds it, so
    the proven total-backoff bound ``(max_attempts - 1) * cap_s`` is
    unchanged.
    """

    max_attempts: int = 5
    base_s: float = 0.05
    cap_s: float = 5.0
    retry_on: Tuple[int, ...] = (503, 504)
    honor_retry_after: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_s <= 0:
            raise ConfigurationError(f"base_s must be > 0, got {self.base_s}")
        if self.cap_s < self.base_s:
            raise ConfigurationError(
                f"cap_s must be >= base_s ({self.base_s}), got {self.cap_s}"
            )


def backoff_schedule(policy: RetryPolicy, rng: random.Random) -> Iterator[float]:
    """The (infinite) decorrelated-jitter delay sequence for *policy*.

    ``delay[n] = min(cap, uniform(base, 3 * delay[n-1]))`` with
    ``delay[-1] = base``.  Every element lies in ``[0, cap_s]``, so any
    prefix of length *k* sums to at most ``k * cap_s``.
    """
    previous = policy.base_s
    while True:
        delay = min(policy.cap_s, rng.uniform(policy.base_s, 3.0 * previous))
        yield delay
        previous = delay


class CircuitBreaker:
    """Three-state (closed / open / half-open) breaker, thread-safe.

    Only *consecutive* failures count: one success resets the streak.
    While open, :meth:`allow` refuses until ``reset_timeout_s`` has
    elapsed on the injected clock; then exactly one caller is admitted
    as the half-open probe.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ConfigurationError(
                f"reset_timeout_s must be > 0, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._streak = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0  #: closed/half-open -> open transitions, cumulative

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (may transition)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = "half-open"
            self._probing = False

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open admits one probe."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half-open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """The service answered (any HTTP status): transport is healthy."""
        with self._lock:
            self._state = "closed"
            self._streak = 0
            self._probing = False

    def record_failure(self) -> None:
        """A transport failure: count it; trip when the streak fills."""
        with self._lock:
            self._streak += 1
            if self._state == "half-open" or self._streak >= self.failure_threshold:
                if self._state != "open":
                    self.trips += 1
                self._state = "open"
                self._probing = False
                self._opened_at = self._clock()


def retry_after_hint(payload: Any) -> Optional[float]:
    """The server's ``retry_after_s`` pacing hint, if *payload* has one."""
    if not isinstance(payload, dict):
        return None
    hint = payload.get("retry_after_s")
    if isinstance(hint, bool) or not isinstance(hint, (int, float)):
        return None
    if hint <= 0:
        return None
    return float(hint)
