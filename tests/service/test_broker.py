"""Broker semantics: dedupe, admission, batching, timeouts, containment."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import RunSpec
from repro.obs.registry import Registry
from repro.service.broker import (
    AdmissionError,
    Broker,
    BrokerClosed,
    RequestTimeout,
    ServiceGuards,
)
from repro.service.cache import ResultCache
from repro.service.query import Query, parse_query
from repro.service.results import CellError, execute_query

SRC = Path(__file__).resolve().parents[2] / "src"


def _energy(app: str = "example", duration: float = 400.0, **overrides):
    request = {"kind": "energy", "app": app, "duration": duration, "seed": 1}
    request.update(overrides)
    return parse_query(request)


@pytest.fixture()
def broker():
    instance = Broker(cache=ResultCache(), jobs=1)
    yield instance
    instance.close()


class TestPaths:
    def test_miss_then_hit(self, broker):
        query = _energy()
        first = broker.submit(query)
        assert first.path == "miss"
        payload = first.future.result(timeout=60)
        assert payload["ok"] is True
        second = broker.submit(query)
        assert second.path == "hit"
        assert second.future.result(timeout=1) == payload

    def test_miss_matches_reference_execution(self, broker):
        """The broker answer is bit-identical to the sequential path."""
        query = _energy(record_trace=True)
        assert broker.query(query, timeout=60) == execute_query(query)

    def test_analytic_kinds_answer_inline(self, broker):
        query = parse_query({"kind": "schedulability", "app": "cnc"})
        submission = broker.submit(query)
        assert submission.path == "analytic"
        assert submission.future.done()
        assert broker.submit(query).path == "hit"

    def test_deterministic_refusals_become_cached_error_payloads(self, broker):
        """A YDS guard refusal is an answer, not a crash — and it caches."""
        query = _energy(app="ins", duration=25_000.0, scheduler="yds")
        payload = broker.query(query, timeout=60)
        assert payload["ok"] is False
        assert payload["error"].startswith("AnalysisError")
        assert broker.submit(query).path == "hit"


class TestDedupe:
    def test_concurrent_identical_queries_share_one_future(self):
        guards = ServiceGuards(batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            query = _energy()
            first = broker.submit(query)
            second = broker.submit(query)
            assert first.path == "miss"
            assert second.path == "dedup"
            assert second.future is first.future
            assert broker.obs.counter_value("broker.dispatched") == 1
            assert first.future.result(timeout=60)["ok"] is True

    def test_dedup_bypasses_admission_control(self):
        guards = ServiceGuards(max_pending=1, batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            query = _energy()
            assert broker.submit(query).path == "miss"
            # The pending table is full, yet an identical request attaches.
            assert broker.submit(query).path == "dedup"


class TestAdmission:
    def test_unique_overflow_is_shed_with_503_semantics(self):
        guards = ServiceGuards(max_pending=1, batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            first = broker.submit(_energy(seed=1))
            with pytest.raises(AdmissionError, match="max_pending=1"):
                broker.submit(_energy(seed=2))
            assert broker.obs.counter_value("broker.shed") == 1
            assert first.future.result(timeout=60)["ok"] is True

    @pytest.mark.parametrize(
        "depth, expected",
        [
            (6, 3.0),  # inside the range: mean 1.0 s * 6 / 2 workers
            (1, 1.0),  # 0.5 s clamps up to the 1 s floor
            (1_000, 60.0),  # 500 s clamps down to the 60 s cap
        ],
    )
    def test_retry_after_scales_mean_miss_latency(self, depth, expected):
        registry = Registry()
        for seconds in (0.5, 1.5):  # mean 1.0 s
            registry.observe("broker.latency_miss", seconds)
        with Broker(cache=ResultCache(), jobs=2, obs=registry) as broker:
            assert broker.retry_after_s(depth) == pytest.approx(expected)

    def test_retry_after_without_samples_is_one_second(self):
        with Broker(cache=ResultCache(), jobs=2) as broker:
            assert broker.retry_after_s(10) == 1.0

    def test_guards_validate_configuration(self):
        with pytest.raises(ConfigurationError):
            ServiceGuards(max_pending=0)
        with pytest.raises(ConfigurationError):
            ServiceGuards(request_timeout_s=0)
        with pytest.raises(ConfigurationError):
            ServiceGuards(batch_window_s=-1e-9)


class TestBatching:
    def test_window_coalesces_misses_into_one_campaign(self):
        guards = ServiceGuards(batch_window_s=0.3)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            submissions = [broker.submit(_energy(seed=s)) for s in (1, 2, 3)]
            for submission in submissions:
                assert submission.future.result(timeout=60)["ok"] is True
            obs = broker.obs
            assert obs.counter_value("broker.batched_cells") == 3
            assert obs.counter_value("broker.batches") < 3, (
                "the window should coalesce"
            )

    def test_zero_window_still_answers(self):
        guards = ServiceGuards(batch_window_s=0.0)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            assert broker.query(_energy(), timeout=60)["ok"] is True


class TestTimeouts:
    def test_expired_wait_raises_but_result_still_caches(self):
        with Broker(cache=ResultCache(), jobs=1) as broker:
            query = _energy(app="cnc", duration=25_000.0)
            submission = broker.submit(query)
            with pytest.raises(RequestTimeout, match="retry"):
                broker.query(query, timeout=1e-4)
            # The abandoned computation completes and lands in the cache…
            submission.future.result(timeout=60)
            # …so the retry is a pure cache hit.
            assert broker.submit(query).path == "hit"
            assert broker.obs.counter_value("broker.timeouts") == 1


class TestClose:
    def test_submit_after_close_is_refused(self):
        broker = Broker(cache=ResultCache(), jobs=1)
        broker.close()
        with pytest.raises(BrokerClosed):
            broker.submit(_energy())

    def test_close_is_idempotent(self):
        broker = Broker(cache=ResultCache(), jobs=1)
        broker.close()
        broker.close()


class _Raising(Query):
    """An energy query whose cell raises a non-library exception."""

    def to_runspec(self):
        def broken():
            raise RuntimeError("scheduler factory bug")

        return replace(super().to_runspec(), scheduler=broken)


#: One ``Broker(jobs=2)`` batch: a cell that SIGKILLs every worker that
#: runs it, and three good queries.  Run in a child process, so a
#: supervisor that reruns the killer itself dies alone.
_POISON_BATCH = """
import os
os.cpu_count = lambda: 4  # keep the pool path on a one-core runner

from repro.faults.chaos import kill_worker, with_chaos
from repro.service.broker import Broker, ServiceGuards
from repro.service.cache import ResultCache
from repro.service.query import Query, parse_query
from repro.service.results import CellError, execute_query


class Poison(Query):
    def to_runspec(self):
        return with_chaos(super().to_runspec(), kill_worker())


def energy(seed):
    return parse_query(
        {"kind": "energy", "app": "cnc", "duration": 9600, "seed": seed}
    )


good = [energy(seed) for seed in (1, 2, 3)]
poison = Poison(**vars(energy(9)))
guards = ServiceGuards(batch_window_s=0.5)
with Broker(cache=ResultCache(), guards=guards, jobs=2) as broker:
    killer = broker.submit(poison)
    submissions = [broker.submit(q) for q in good]
    answers = [s.future.result(timeout=120) for s in submissions]
    assert answers == [execute_query(q) for q in good]
    try:
        killer.future.result(timeout=120)
    except CellError as exc:
        assert "BrokenProcessPool" in str(exc), exc
    else:
        raise AssertionError("the killer's waiter got an answer")
    assert broker.cache.get(killer.fingerprint) is None
    assert broker.obs.counter_value("broker.batches") == 1
print("survived")
"""


class TestContainment:
    """A miss is a campaign cell: each runs once, and fails alone."""

    def test_refusal_in_a_batch_runs_each_cell_once(self, monkeypatch):
        runs = Counter()
        run = RunSpec.run

        def counted(spec):
            runs[spec.scheduler, spec.seed] += 1
            return run(spec)

        monkeypatch.setattr(RunSpec, "run", counted)
        good = [_energy(app="cnc", duration=9_600.0, seed=s) for s in (1, 2, 3, 4)]
        refusal = _energy(app="avionics", duration=None, scheduler="yds")
        expected = execute_query(refusal)
        runs.clear()
        guards = ServiceGuards(batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            submissions = [broker.submit(q) for q in (*good[:2], refusal, *good[2:])]
            answers = [s.future.result(timeout=60) for s in submissions]
            assert broker.obs.counter_value("broker.batches") == 1
            assert broker.obs.counter_value("runner.campaigns") == 1
            assert broker.obs.counter_value("runner.cells") == 5
            assert broker.submit(refusal).path == "hit"
            assert broker.cache.get(submissions[2].fingerprint) == expected
        assert answers[2] == expected
        assert expected["error"].startswith("AnalysisError: YDS guard")
        assert answers[:2] + answers[3:] == [execute_query(q) for q in good]
        assert runs == Counter(
            {("lpfps", s): 2 for s in (1, 2, 3, 4)} | {("yds", 1): 1}
        ), "each cell once in the batch, once more for the reference"

    def test_non_library_failure_fails_only_its_waiter_uncached(self):
        good = [_energy(seed=s) for s in (1, 2)]
        bad = _Raising(**vars(_energy(seed=3)))
        guards = ServiceGuards(batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            failing = broker.submit(bad)
            submissions = [broker.submit(q) for q in good]
            answers = [s.future.result(timeout=60) for s in submissions]
            with pytest.raises(CellError, match="RuntimeError: scheduler factory bug"):
                failing.future.result(timeout=60)
            assert broker.obs.counter_value("broker.batches") == 1
            assert broker.cache.get(failing.fingerprint) is None
            assert broker.submit(bad).path == "miss", "a failure is never cached"
        assert answers == [execute_query(q) for q in good]

    @pytest.mark.chaos
    def test_worker_killing_cell_fails_alone_and_the_server_survives(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _POISON_BATCH],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
        assert done.stdout.split() == ["survived"]
