"""The warm worker pool ``run_many`` keeps between campaigns.

At most one idle multi-worker pool is parked at module level.  A
campaign takes it only when it is wide enough and every worker still
lives, never shares it with a concurrent campaign, and parks its pool
afterwards only if nothing broke and nothing is left in flight.  Pool
workers exit on their own once the supervisor process dies, so a
SIGKILLed server leaks no processes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import RunSpec, run_many
from repro.faults.chaos import kill_worker, with_chaos
from repro.obs.registry import Registry, installed
from repro.tasks.generation import GaussianModel
from repro.workloads.registry import get_workload

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _multicore(monkeypatch):
    # run_many clamps the pool width to the CPU count; pretend to have
    # cores so the pooled path runs on any box.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def _spec(seed=1):
    return RunSpec(
        taskset=get_workload("cnc").prioritized(),
        scheduler="lpfps",
        seed=seed,
        execution_model=GaussianModel(),
        duration=9_600.0,
    )


def _sig(result):
    return (
        repr(result.energy.total),
        repr(result.average_power),
        result.jobs_completed,
        result.context_switches,
    )


def _parked():
    """The parked pool, or ``None`` when the slot is empty."""
    with runner._idle_lock:
        return None if runner._idle_pool is None else runner._idle_pool[-1]


def _record_pools(monkeypatch):
    """Wrap pool hand-out so a test sees which pool each campaign held.

    Returns ``(taken, shared)``: every pool handed out, in order, and
    every pool handed out while another campaign still held it.
    """
    taken, held, shared = [], set(), []
    lock = threading.Lock()
    take, park = runner._take_pool, runner._park_pool

    def tracked_take(width):
        got = take(width)
        pool = got[1]
        with lock:
            if id(pool) in held:
                shared.append(pool)
            held.add(id(pool))
            taken.append(pool)
        return got

    def tracked_park(width, pool):
        with lock:
            held.discard(id(pool))
        park(width, pool)

    monkeypatch.setattr(runner, "_take_pool", tracked_take)
    monkeypatch.setattr(runner, "_park_pool", tracked_park)
    return taken, shared


class TestReuse:
    def test_back_to_back_campaigns_reuse_one_pool(self, monkeypatch):
        taken, _ = _record_pools(monkeypatch)
        first = run_many([_spec(s) for s in (1, 2, 3, 4)], jobs=2)
        second = run_many([_spec(s) for s in (5, 6, 7, 8)], jobs=2)
        assert first[0].metadata["executor"] == "process-pool"
        assert second[0].metadata["executor"] == "process-pool"
        assert len(taken) == 2 and taken[0] is taken[1]
        assert _parked() is taken[0]

    def test_too_narrow_a_pool_is_replaced_and_a_wider_one_reused(
        self, monkeypatch
    ):
        taken, _ = _record_pools(monkeypatch)
        run_many([_spec(s) for s in (1, 2, 3)], jobs=2)
        run_many([_spec(s) for s in (1, 2, 3)], jobs=3)
        assert len(taken) == 2 and taken[0] is not taken[1]
        assert _parked() is taken[1]  # the newest pool displaces the old
        narrow = run_many([_spec(s) for s in (1, 2)], jobs=2)
        assert taken[2] is taken[1]
        assert {r.metadata["workers"] for r in narrow} == {2}

    def test_concurrent_campaigns_never_share_a_pool(self, monkeypatch):
        taken, shared = _record_pools(monkeypatch)
        seeds = {0: (1, 2, 3, 4), 1: (5, 6, 7, 8)}
        reference = {
            k: [_sig(r) for r in run_many([_spec(s) for s in v], jobs=1)]
            for k, v in seeds.items()
        }
        got, errors = {}, []
        start = threading.Barrier(2)

        def campaign(k):
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    results = run_many([_spec(s) for s in seeds[k]], jobs=2)
                    got.setdefault(k, []).append([_sig(r) for r in results])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=campaign, args=(k,)) for k in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for k in seeds:
            assert got[k] == [reference[k]] * 3
        assert len(taken) == 6
        assert not shared


@pytest.mark.chaos
class TestBrokenPool:
    def test_killed_worker_pool_is_discarded(self, monkeypatch, tmp_path):
        taken, _ = _record_pools(monkeypatch)
        run_many([_spec(s) for s in (1, 2)], jobs=2)
        warm = _parked()
        assert warm is not None
        specs = [_spec(s) for s in (1, 2, 3, 4)]
        chaotic = list(specs)
        chaotic[1] = with_chaos(specs[1], kill_worker(marker=tmp_path / "fired"))
        run_many(chaotic, jobs=2, failures="contain")
        assert (tmp_path / "fired").exists()
        assert taken[1] is warm  # the chaos campaign ran in the warm pool
        assert _parked() is not warm  # ... which broke and was never parked
        clean = run_many([_spec(s) for s in (1, 2, 3, 4)], jobs=2)
        assert taken[-1] is not warm
        reference = run_many([_spec(s) for s in (1, 2, 3, 4)], jobs=1)
        assert [_sig(r) for r in clean] == [_sig(r) for r in reference]

    def test_worker_killed_while_parked_is_not_charged_to_the_next_campaign(
        self, monkeypatch
    ):
        taken, _ = _record_pools(monkeypatch)
        run_many([_spec(s) for s in (1, 2)], jobs=2)
        warm = _parked()
        victim = next(iter(warm._processes.values())).pid
        os.kill(victim, signal.SIGKILL)
        assert _reapable(victim)
        specs = [_spec(s) for s in (1, 2, 3, 4)]
        registry = Registry()
        with installed(registry):
            results = run_many(specs, jobs=2)  # failures="raise"
        assert {r.metadata["executor"] for r in results} == {"process-pool"}
        assert registry.counter_value("runner.pool_rebuilds") == 0
        assert taken[-1] is not warm
        reference = run_many([_spec(s) for s in (1, 2, 3, 4)], jobs=1)
        assert [_sig(r) for r in results] == [_sig(r) for r in reference]


_ORPHAN_SCRIPT = textwrap.dedent(
    """
    import multiprocessing, os, signal, sys
    os.cpu_count = lambda: 4
    from repro.experiments.runner import RunSpec, run_many
    from repro.tasks.generation import GaussianModel
    from repro.workloads.registry import get_workload

    def specs(seeds):
        taskset = get_workload("cnc").prioritized()
        return [RunSpec(taskset=taskset, scheduler="lpfps", seed=s,
                        execution_model=GaussianModel(), duration=9_600.0)
                for s in seeds]

    def die(*_):
        pids = [p.pid for p in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

    if sys.argv[1] == "idle":
        run_many(specs(range(1, 5)), jobs=2)  # leaves its pool parked
        die()
    else:
        run_many(specs(range(1, 9)), jobs=2, progress=die)
    """
)


def _reapable(pid, timeout=5.0):
    """Wait until child *pid* has exited and can be reaped; leave it unreaped.

    ``/proc`` shows a dying worker as a zombie while its parent-watch
    thread is still exiting, but the parent cannot reap it, and
    ``is_alive()`` still reads True, until every thread is gone.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            if os.waitid(os.P_PID, pid, flags) is not None:
                return True
        except ChildProcessError:
            return True  # already reaped by the pool's manager thread
        time.sleep(0.01)
    return False


def _alive(pid):
    """True while *pid* runs; an unreaped zombie has already exited."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


@pytest.mark.chaos
@pytest.mark.parametrize("when", ["idle", "mid-campaign"])
def test_workers_exit_when_their_supervisor_is_sigkilled(when):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC_ROOT + (os.pathsep + existing if existing else "")
    child = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT, when],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == -9, child.stderr
    pids = [int(pid) for pid in child.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(_alive(pid) for pid in pids):
        time.sleep(0.05)
    assert not [pid for pid in pids if _alive(pid)]
