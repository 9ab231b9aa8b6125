"""Fleet failover client + restart budget: deterministic unit coverage.

Everything here runs in-memory and on hand-cranked clocks/RNGs — the
satellite contract from ISSUE 6: retry/failover behaviour must be a
pure function of the injected ``random.Random`` and scripted
transports, never of wall-clock timing.  The subprocess fleet is
exercised separately in ``tests/resilience/test_fleet_chaos.py``.
"""

from __future__ import annotations

import random
import urllib.error

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.obs.registry import Registry, installed
from repro.service.fleet import FleetClient
from repro.service.retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.service.supervisor import RestartBudget


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class _Replica:
    """An in-memory replica: scripted answers, or dead (raises)."""

    def __init__(self, name, dead=False):
        self.name = name
        self.dead = dead
        self.calls = 0

    def query(self, request):
        self.calls += 1
        if self.dead:
            raise ConnectionError(f"{self.name} is dead")
        return 200, {"ok": True, "replica": self.name}


def _fleet(replicas, **kwargs):
    sleeps = []
    transports = {f"http://{r.name}": r for r in replicas}
    client = FleetClient(
        list(transports),
        policy=kwargs.pop("policy", RetryPolicy(max_attempts=4)),
        rng=kwargs.pop("rng", random.Random(1)),
        sleep=sleeps.append,
        client_factory=transports.__getitem__,
        **kwargs,
    )
    return client, sleeps


class TestRoundRobin:
    def test_requests_spread_over_replicas(self):
        replicas = [_Replica("a"), _Replica("b"), _Replica("c")]
        client, _ = _fleet(replicas)
        answered = [client({})[1]["replica"] for _ in range(6)]
        assert answered == ["a", "b", "c", "a", "b", "c"]
        assert [r.calls for r in replicas] == [2, 2, 2]

    def test_rejects_empty_endpoint_list(self):
        with pytest.raises(ConfigurationError):
            FleetClient([])


class TestFailover:
    def test_dead_replica_fails_over_with_zero_client_failures(self):
        replicas = [_Replica("a", dead=True), _Replica("b")]
        client, sleeps = _fleet(replicas)
        for _ in range(4):
            status, payload = client({})
            assert status == 200
            assert payload["replica"] == "b"
        # Failover is immediate re-issue, never a backoff sleep.
        assert sleeps == []
        assert client.transport_failures > 0

    def test_dead_replica_is_ejected_by_its_breaker(self):
        replicas = [_Replica("a", dead=True), _Replica("b")]
        client, _ = _fleet(replicas)
        for _ in range(10):
            assert client({})[0] == 200
        # Breaker default threshold is 3: after ejection the dead
        # replica stops being dialled at all.
        assert replicas[0].calls == 3
        assert client.breaker_states()["http://a"] == "open"

    def test_recovered_replica_rejoins_after_half_open_probe(self):
        clock = _FakeClock()
        replicas = [_Replica("a", dead=True), _Replica("b")]
        client, _ = _fleet(
            replicas,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_timeout_s=5.0, clock=clock
            ),
        )
        assert client({})[0] == 200      # ejects a
        replicas[0].dead = False          # the supervisor restarted it
        clock.advance(5.0)                # breaker half-opens
        served = {client({})[1]["replica"] for _ in range(4)}
        assert served == {"a", "b"}       # back in the rotation

    def test_all_replicas_dead_raises_last_transport_error(self):
        replicas = [_Replica("a", dead=True), _Replica("b", dead=True)]
        client, _ = _fleet(replicas, policy=RetryPolicy(max_attempts=2))
        with pytest.raises(ConnectionError):
            client({})

    def test_every_breaker_open_raises_circuit_open(self):
        replicas = [_Replica("a", dead=True), _Replica("b", dead=True)]
        breakers = {}

        def factory():
            breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
            breakers[len(breakers)] = breaker
            return breaker

        client, sleeps = _fleet(
            replicas,
            policy=RetryPolicy(max_attempts=4),
            breaker_factory=factory,
        )
        # Pass 1 trips both breakers; pass 2 finds nothing to dial and
        # fails fast instead of sleeping through the remaining passes.
        with pytest.raises(CircuitOpenError, match="ConnectionError") as info:
            client({})
        assert isinstance(info.value.__cause__, ConnectionError)
        assert client.fast_fails == 1 and len(sleeps) == 1
        with pytest.raises(CircuitOpenError):
            client({})                   # nothing left to dial
        assert client.attempts == 2


class TestFlowControl:
    def test_503_backs_off_then_retries(self):
        class _Shedding:
            def __init__(self):
                self.calls = 0

            def query(self, request):
                self.calls += 1
                if self.calls == 1:
                    return 503, {"ok": False, "queue_depth": 9}
                return 200, {"ok": True, "replica": "a"}

        shedding = _Shedding()
        client = FleetClient(
            ["http://a"],
            policy=RetryPolicy(max_attempts=3),
            rng=random.Random(1),
            sleep=lambda d: None,
            client_factory=lambda url: shedding,
        )
        status, _ = client({})
        assert status == 200
        assert client.shed_seen == 1
        assert client.retries == 1

    def test_exhaustion_returns_last_flow_control_answer(self):
        shedding = _Replica("a")
        shedding.query = lambda request: (503, {"ok": False})
        client, sleeps = _fleet([shedding], policy=RetryPolicy(max_attempts=3))
        status, payload = client({})
        assert status == 503
        assert len(sleeps) == 2  # never sleeps after the final pass

    def test_counters_land_in_installed_registry(self):
        registry = Registry()
        replicas = [_Replica("a", dead=True), _Replica("b")]
        client, _ = _fleet(replicas)
        with installed(registry):
            client({})
        assert registry.counter_value("client.attempts") == 2
        assert registry.counter_value("client.transport_failures") == 1


class TestDeterminism:
    """The satellite pin: backoff is a pure function of the seeded RNG."""

    def test_same_seed_same_backoff_schedule(self):
        def run(seed):
            sleeps = []
            shed = _Replica("a")
            shed.query = lambda request: (503, {"ok": False})
            client = FleetClient(
                ["http://a"],
                policy=RetryPolicy(max_attempts=6),
                rng=random.Random(seed),
                sleep=sleeps.append,
                client_factory=lambda url: shed,
            )
            client({})
            return sleeps

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestRestartBudget:
    def test_backoff_doubles_up_to_cap(self):
        clock = _FakeClock()
        budget = RestartBudget(
            base_s=1.0, cap_s=8.0, max_restarts=10, window_s=1000.0, clock=clock
        )
        delays = [budget.next_restart() for _ in range(5)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_recovery_resets_the_backoff_streak(self):
        clock = _FakeClock()
        budget = RestartBudget(
            base_s=1.0, cap_s=8.0, max_restarts=10, window_s=1000.0, clock=clock
        )
        assert budget.next_restart() == 1.0
        assert budget.next_restart() == 2.0
        budget.record_recovery()
        assert budget.next_restart() == 1.0

    def test_budget_exhaustion_quarantines(self):
        clock = _FakeClock()
        budget = RestartBudget(
            base_s=0.1, cap_s=0.1, max_restarts=3, window_s=60.0, clock=clock
        )
        assert budget.next_restart() is not None
        assert budget.next_restart() is not None
        assert budget.next_restart() is not None
        assert budget.next_restart() is None  # the circuit: stop thrashing

    def test_window_expiry_restores_budget(self):
        clock = _FakeClock()
        budget = RestartBudget(
            base_s=0.1, cap_s=0.1, max_restarts=2, window_s=60.0, clock=clock
        )
        budget.next_restart()
        budget.next_restart()
        assert budget.next_restart() is None
        clock.advance(61.0)
        assert budget.next_restart() is not None

    def test_recovery_does_not_reset_the_window(self):
        # A crash-looper with brief healthy periods still quarantines.
        clock = _FakeClock()
        budget = RestartBudget(
            base_s=0.1, cap_s=0.1, max_restarts=2, window_s=60.0, clock=clock
        )
        budget.next_restart()
        budget.record_recovery()
        budget.next_restart()
        budget.record_recovery()
        assert budget.next_restart() is None

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            RestartBudget(base_s=0.0)
        with pytest.raises(ConfigurationError):
            RestartBudget(base_s=1.0, cap_s=0.5)
        with pytest.raises(ConfigurationError):
            RestartBudget(max_restarts=0)
        with pytest.raises(ConfigurationError):
            RestartBudget(window_s=0.0)


class _ScriptedScenarioClient:
    """A fake scenario client: scripted submit answer + event stream."""

    def __init__(self, name, events, submit=(200, None), die_after=None):
        self.name = name
        self.events = events
        self.submit_answer = submit
        self.die_after = die_after  # yield this many, then drop the stream
        self.submits = 0
        self.streams = 0

    def submit_scenario(self, request):
        self.submits += 1
        status, payload = self.submit_answer
        if payload is None:
            payload = {"ok": True, "campaign_id": "cabc"}
        return status, payload

    def stream(self, campaign_id, after=0):
        self.streams += 1
        yielded = 0
        for event in self.events:
            if event["seq"] <= after:
                continue
            if self.die_after is not None and yielded >= self.die_after:
                raise ConnectionError(f"{self.name} died mid-stream")
            yielded += 1
            yield event


def _events(*seqs, terminal="done"):
    out = [{"seq": s, "kind": "cell", "data": {"cell": s - 1}} for s in seqs]
    out.append({"seq": seqs[-1] + 1 if seqs else 1, "kind": terminal, "data": {}})
    return out


def _scenario_fleet(clients, **kwargs):
    by_url = {f"http://{c.name}": c for c in clients}
    sleeps = []
    fleet = FleetClient(
        list(by_url),
        client_factory=by_url.__getitem__,
        sleep=sleeps.append,
        **kwargs,
    )
    return fleet, sleeps


class TestFleetResumeScenario:
    def test_replica_death_mid_stream_fails_over_gapless(self):
        full = _events(1, 2, 3)
        a = _ScriptedScenarioClient("a", full, die_after=2)
        b = _ScriptedScenarioClient("b", full)
        registry = Registry()
        fleet, sleeps = _scenario_fleet([a, b], obs=registry)
        events = list(fleet.resume_scenario({"pack": "weakly_hard"}))
        # Gapless and duplicate-free across the failover.
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert events[-1]["kind"] == "done"
        assert a.streams == 1 and b.streams == 1
        # The resumed attachment asked only for the unseen tail.
        assert registry.counter_value("client.stream_failovers") == 1
        assert len(sleeps) == 1

    def test_healthy_replica_streams_in_one_attachment(self):
        a = _ScriptedScenarioClient("a", _events(1, 2))
        fleet, sleeps = _scenario_fleet([a])
        events = list(fleet.resume_scenario({"pack": "weakly_hard"}))
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert sleeps == []

    def test_http_error_on_stream_reattaches_without_tripping(self):
        class _Evicting(_ScriptedScenarioClient):
            def stream(self, campaign_id, after=0):
                if self.streams == 0:  # the first attachment finds a 410
                    self.streams += 1
                    raise urllib.error.HTTPError(
                        "http://a/v1/stream/cabc", 410, "Gone", None, None
                    )
                yield from super().stream(campaign_id, after)

        a = _Evicting("a", _events(1, 2))
        fleet, sleeps = _scenario_fleet(
            [a],
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_timeout_s=60.0
            ),
        )
        events = list(fleet.resume_scenario({"pack": "weakly_hard"}))
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert a.submits == 2 and len(sleeps) == 1  # one re-POST
        assert fleet.breaker_states() == {"http://a": "closed"}
        assert fleet.transport_failures == 0

    def test_non_200_submission_raises(self):
        a = _ScriptedScenarioClient(
            "a", [], submit=(400, {"ok": False, "error": "bad scenario"})
        )
        fleet, _ = _scenario_fleet([a])
        with pytest.raises(ServiceError, match="bad scenario"):
            list(fleet.resume_scenario({"pack": "nope"}))

    def test_reconnect_budget_exhaustion_raises(self):
        a = _ScriptedScenarioClient("a", _events(1, 2), die_after=0)
        b = _ScriptedScenarioClient("b", _events(1, 2), die_after=0)
        fleet, _ = _scenario_fleet([a, b])
        with pytest.raises(ServiceError, match="reconnects"):
            list(fleet.resume_scenario({"pack": "weakly_hard"}, max_reconnects=3))

    def test_submit_scenario_fails_over_dead_replica(self):
        class _DeadScenarioClient:
            def submit_scenario(self, request):
                raise ConnectionError("dead")

        alive = _ScriptedScenarioClient("b", [])
        clients = {"http://a": _DeadScenarioClient(), "http://b": alive}
        fleet = FleetClient(list(clients), client_factory=clients.__getitem__)
        status, payload = fleet.submit_scenario({"pack": "weakly_hard"})
        assert status == 200 and payload["campaign_id"] == "cabc"
        assert fleet.transport_failures == 1
