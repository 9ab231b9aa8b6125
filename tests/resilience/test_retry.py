"""One-URL retrying client + circuit breaker, with injected clock/sleep/RNG.

Everything here is deterministic and instantaneous: sleeps are recorded
rather than slept, the breaker runs on a hand-cranked clock, and the
Hypothesis property pins the backoff-total bound the module docstring
promises — no retry storm can sleep longer than
``(max_attempts - 1) * cap_s``.
"""

import random
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.service.fleet import FleetClient
from repro.service.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    backoff_schedule,
)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class _ScriptedTransport:
    """Replays a script of ``(status, payload)`` answers or exceptions."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def query(self, request):
        self.calls += 1
        item = self.script.pop(0) if self.script else (200, {"ok": True})
        if isinstance(item, BaseException):
            raise item
        return item


def _client(script, **kwargs):
    sleeps = []
    breaker = kwargs.pop("breaker", None) or CircuitBreaker()
    client = FleetClient(
        ["http://one"],
        policy=kwargs.pop("policy", RetryPolicy(max_attempts=4)),
        rng=kwargs.pop("rng", random.Random(1)),
        sleep=sleeps.append,
        client_factory=lambda url: _ScriptedTransport(script),
        breaker_factory=lambda: breaker,
        **kwargs,
    )
    return client, sleeps


class TestRetries:
    def test_success_passes_straight_through(self):
        client, sleeps = _client([(200, {"ok": True})])
        status, payload = client({"q": 1})
        assert status == 200 and payload == {"ok": True}
        assert client.attempts == 1 and client.retries == 0
        assert sleeps == []

    def test_503_then_success_retries(self):
        client, sleeps = _client([(503, {}), (503, {}), (200, {"ok": True})])
        status, _ = client({})
        assert status == 200
        assert client.attempts == 3 and client.retries == 2
        assert len(sleeps) == 2

    def test_504_is_retried_answer_may_be_cached(self):
        client, _ = _client([(504, {}), (200, {"ok": True, "cached": True})])
        status, payload = client({})
        assert status == 200 and payload["cached"]

    def test_exhaustion_returns_last_flow_control_answer(self):
        client, sleeps = _client([(503, {"error": "shed"})] * 10)
        status, payload = client({})
        assert status == 503 and payload == {"error": "shed"}
        assert client.attempts == 4  # max_attempts, then give up
        assert len(sleeps) == 3      # never sleeps after the final attempt

    def test_400_never_retried(self):
        client, _ = _client([(400, {"error": "bad"}), (200, {})])
        status, _ = client({})
        assert status == 400
        assert client.attempts == 1

    def test_transport_error_then_success(self):
        client, _ = _client([ConnectionError("down"), (200, {"ok": True})])
        status, _ = client({})
        assert status == 200
        assert client.transport_failures == 1

    def test_all_transport_failures_raise_last_error(self):
        client, _ = _client([ConnectionError(f"n{i}") for i in range(10)])
        with pytest.raises(ConnectionError, match="n3"):
            client({})
        assert client.attempts == 4

    def test_counters_land_in_installed_registry(self):
        from repro.obs.registry import Registry, installed

        registry = Registry()
        client, _ = _client([(503, {}), (200, {})])
        with installed(registry):
            client({})
        assert registry.counter_value("client.attempts") == 2
        assert registry.counter_value("client.retries") == 1


class TestPolicyValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=1.0, cap_s=0.5)


class TestBreaker:
    def test_trips_after_consecutive_transport_failures(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=30.0,
                                 clock=clock)
        script = [ConnectionError("down")] * 10
        client, _ = _client(
            script, policy=RetryPolicy(max_attempts=10), breaker=breaker
        )
        with pytest.raises(CircuitOpenError):
            client({})
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert client.transport_failures == 3  # threshold, then fast-fail
        assert client.fast_fails == 1

    def test_open_breaker_fast_fails_new_calls(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=30.0,
                                 clock=clock)
        client, _ = _client([ConnectionError("down")],
                            policy=RetryPolicy(max_attempts=2), breaker=breaker)
        with pytest.raises(CircuitOpenError):
            client({})
        fresh, _ = _client([(200, {})], breaker=breaker)
        with pytest.raises(CircuitOpenError):
            fresh({})
        assert fresh.attempts == 0  # the transport was never touched

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=30.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(30.0)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # concurrent callers still refused
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_admits_one_probe_among_concurrent_callers(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=30.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(30.0)
        barrier = threading.Barrier(8)
        admitted = []

        def caller():
            barrier.wait()
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(admitted) == [False] * 7 + [True]

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0,
                                 clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()     # the probe fails: straight back open
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive* failures

    def test_flow_control_answers_do_not_count_as_transport_failures(self):
        # 503 means the service answered; the breaker must stay closed.
        breaker = CircuitBreaker(failure_threshold=2)
        client, _ = _client([(503, {})] * 10,
                            policy=RetryPolicy(max_attempts=5), breaker=breaker)
        status, _ = client({})
        assert status == 503
        assert breaker.state == "closed"
        assert breaker.trips == 0

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout_s=0.0)


class TestBackoffBounds:
    @given(seed=st.integers(0, 2**32 - 1),
           max_attempts=st.integers(1, 12),
           base_s=st.floats(0.001, 1.0),
           cap_factor=st.floats(1.0, 20.0))
    def test_total_backoff_is_bounded(self, seed, max_attempts, base_s,
                                      cap_factor):
        policy = RetryPolicy(
            max_attempts=max_attempts, base_s=base_s, cap_s=base_s * cap_factor
        )
        schedule = backoff_schedule(policy, random.Random(seed))
        delays = [next(schedule) for _ in range(max_attempts - 1)]
        assert all(0.0 <= d <= policy.cap_s for d in delays)
        # 1e-9 relative slack: summation rounding, not a real overshoot.
        bound = (max_attempts - 1) * policy.cap_s
        assert sum(delays) <= bound * (1.0 + 1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_client_total_sleep_is_bounded(self, seed):
        policy = RetryPolicy(max_attempts=6, base_s=0.01, cap_s=0.5)
        client, _ = _client(
            [(503, {})] * 10, policy=policy, rng=random.Random(seed)
        )
        client({})
        bound = (policy.max_attempts - 1) * policy.cap_s
        assert client.backoff_s <= bound * (1.0 + 1e-9)


class TestRetryAfter:
    """The server's pacing hint: a floor on the next delay, never a storm."""

    def _policy(self, **kwargs):
        defaults = dict(max_attempts=3, base_s=0.01, cap_s=5.0)
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_hint_floors_the_jittered_delay(self):
        client, sleeps = _client(
            [(503, {"retry_after_s": 2.0}), (200, {"ok": True})],
            policy=self._policy(),
        )
        status, _ = client({})
        assert status == 200
        # the jittered delay from base 0.01 is far below 2.0
        assert sleeps == [2.0]

    def test_cap_still_bounds_an_absurd_hint(self):
        client, sleeps = _client(
            [(503, {"retry_after_s": 100.0}), (200, {"ok": True})],
            policy=self._policy(cap_s=0.5),
        )
        client({})
        assert sleeps == [0.5]
        bound = (client.policy.max_attempts - 1) * client.policy.cap_s
        assert client.backoff_s <= bound

    def test_honor_retry_after_false_ignores_the_hint(self):
        client, sleeps = _client(
            [(503, {"retry_after_s": 2.0}), (200, {"ok": True})],
            policy=self._policy(honor_retry_after=False),
        )
        client({})
        assert sleeps and sleeps[0] < 1.0

    def test_non_numeric_and_nonpositive_hints_are_ignored(self):
        for bad in ("soon", True, 0, -3, None):
            client, sleeps = _client(
                [(503, {"retry_after_s": bad}), (200, {"ok": True})],
                policy=self._policy(),
            )
            client({})
            assert sleeps and sleeps[0] < 1.0, f"hint {bad!r} was honored"

    def test_honored_hint_is_counted(self):
        from repro.obs.registry import Registry

        registry = Registry()
        client, _ = _client(
            [(503, {"retry_after_s": 2.0}), (200, {"ok": True})],
            policy=self._policy(),
            obs=registry,
        )
        client({})
        counters = registry.snapshot()["counters"]
        assert counters["client.retry_after_honored"] == 1

    def test_transport_error_clears_the_stale_hint(self):
        """A hint from attempt 1 must not pace attempt 3 after a socket error."""
        client, sleeps = _client(
            [
                (503, {"retry_after_s": 2.0}),
                ConnectionError("reset"),
                (200, {"ok": True}),
            ],
            policy=self._policy(max_attempts=4),
        )
        status, _ = client({})
        assert status == 200
        assert sleeps[0] == 2.0
        assert sleeps[1] < 1.0  # hint no longer applies
