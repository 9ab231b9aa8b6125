"""Campaign chaos: SIGKILL the server mid-campaign, resume, verify the seam.

The ISSUE 10 acceptance scenario, end to end against real processes: a
``lpfps serve --checkpoint-dir`` subprocess is SIGKILLed after at least
half its campaign has streamed; a second subprocess over the same
checkpoint dir resumes the orphaned campaign; the client reconnects with
``?after=N``.  The merged event sequence must be gapless and
duplicate-free, cell results must be bit-identical to an uninterrupted
in-process run, and the resume must not waste recomputation on cells
that were already durably committed before the kill.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import urllib.error
from pathlib import Path

import pytest

from repro.scenarios import load_pack, parse_scenario
from repro.scenarios.runner import run_scenario
from repro.service.client import TRANSPORT_ERRORS, ServiceClient
from repro.service.fleet import FleetClient

pytestmark = pytest.mark.chaos

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def _scenario_document():
    """A 16-cell campaign whose cells are slow enough to kill mid-run."""
    document = load_pack("ins").canonical_document()
    document["name"] = "chaos_ins"
    document["campaign"] = {
        "schedulers": ["fps", "lpfps"],
        "seeds": [1, 2, 3, 4, 5, 6, 7, 8],
        "duration": 10_000_000.0,
    }
    return document


class _Server:
    """One ``lpfps serve`` subprocess with stdout-scraped URL."""

    def __init__(self, checkpoint_dir, cache_dir):
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = SRC_ROOT + (
            os.pathsep + existing if existing else ""
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--jobs", "1",
                "--cache-dir", str(cache_dir),
                "--checkpoint-dir", str(checkpoint_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        self.url = None
        self.banner = []
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.banner.append(line.rstrip())
            if line.startswith("serving on "):
                self.url = line.split("serving on ", 1)[1].strip()
                break
        assert self.url, f"server never came up: {self.banner}"

    def sigkill(self):
        self.process.kill()
        self.process.wait(timeout=10.0)

    def terminate(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)


class TestKillAndResume:
    def test_sigkill_mid_campaign_resumes_gapless_and_bit_identical(
        self, tmp_path
    ):
        document = _scenario_document()
        total = 16
        checkpoint, cache = tmp_path / "ckpt", tmp_path / "cache"

        first = _Server(checkpoint, cache)
        merged = []
        try:
            client = ServiceClient(first.url, timeout_s=60.0)
            status, payload = client.submit_scenario({"scenario": document})
            assert status == 200, payload
            campaign_id = payload["campaign_id"]
            assert payload["cells"] == total
            # Follow the live stream; kill at >= 50% progress.
            try:
                for event in client.stream(campaign_id):
                    merged.append(event)
                    cells = sum(1 for e in merged if e["kind"] == "cell")
                    if cells >= total // 2:
                        first.sigkill()
                        break
            except TRANSPORT_ERRORS:
                pass  # the stream died with the server: expected
        finally:
            first.terminate()
        streamed_before_kill = [e for e in merged if e["kind"] == "cell"]
        assert len(streamed_before_kill) >= total // 2
        assert merged[-1]["kind"] != "done", "campaign finished before kill"

        # Restart over the same checkpoint dir: the orphaned manifest is
        # picked up at startup and the campaign continues.
        second = _Server(checkpoint, cache)
        try:
            assert any("resumed 1 orphaned" in b for b in second.banner), (
                second.banner
            )
            client = ServiceClient(second.url, timeout_s=120.0)
            after = merged[-1]["seq"]
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                try:
                    for event in client.stream(campaign_id, after=after):
                        if event["seq"] <= after:
                            continue
                        merged.append(event)
                        after = event["seq"]
                    if merged[-1]["kind"] in ("done", "error"):
                        break
                except TRANSPORT_ERRORS:
                    time.sleep(0.2)
            status, metrics = client.metrics()
        finally:
            second.terminate()

        # Gapless, duplicate-free, terminal.
        assert merged[-1]["kind"] == "done", merged[-1]
        seqs = [e["seq"] for e in merged]
        assert seqs == list(range(1, len(merged) + 1))
        cells = [e for e in merged if e["kind"] == "cell"]
        assert len(cells) == total
        assert sorted(e["data"]["cell"] for e in cells) == list(range(total))

        # No wasted recompute: every cell committed before the kill came
        # back as a journal hit (or was already streamed); at most the
        # one in-flight cell is recomputed beyond the unfinished tail.
        recomputed = [
            e for e in cells[len(streamed_before_kill):]
            if e["data"].get("checkpoint") == "stored"
        ]
        unfinished = total - len(streamed_before_kill)
        assert len(recomputed) <= unfinished + 1

        # Bit-identical to an uninterrupted in-process run.
        reference = run_scenario(parse_scenario(document), jobs=1)
        by_index = {e["data"]["cell"]: e["data"] for e in cells}
        for cell in reference.cells:
            data = by_index[cell.index]
            assert data["scheduler"] == cell.scheduler
            assert data["seed"] == cell.seed
            assert data["average_power"] == cell.result.average_power
            assert data["deadline_misses"] == len(cell.result.deadline_misses)

        # The resumed server exported the durability counters.
        values = {
            row["name"]: row["value"]
            for row in metrics["tests"]["service"]["metrics"]
        }
        assert values.get("stream.campaigns_resumed", 0) == 1
        assert values.get("cache.scrub_manifests", 0) >= 1

    def test_resume_scenario_client_rides_through_the_crash(self, tmp_path):
        # The client-side loop: one resume_scenario generator spanning a
        # SIGKILL + restart, no manual reconnect bookkeeping.
        document = _scenario_document()
        document["name"] = "chaos_ins_client"
        document["campaign"]["seeds"] = [1, 2, 3, 4]  # 8 cells
        checkpoint, cache = tmp_path / "ckpt", tmp_path / "cache"

        first = _Server(checkpoint, cache)
        events = []
        second = None
        try:
            client = ServiceClient(first.url, timeout_s=60.0)
            fleet = FleetClient([first.url], client_factory=lambda url: client)
            for event in fleet.resume_scenario(
                {"scenario": document},
                max_reconnects=40,
                reconnect_delay_s=0.25,
            ):
                events.append(event)
                cells = sum(1 for e in events if e["kind"] == "cell")
                if cells == 4 and second is None:
                    first.sigkill()
                    second = _Server(checkpoint, cache)
                    # Same host, new port: re-point the one client.
                    client.url = second.url.rstrip("/")
        finally:
            first.terminate()
            if second is not None:
                second.terminate()
        assert second is not None, "campaign finished before the kill"
        assert events[-1]["kind"] == "done"
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(1, len(seqs) + 1))
        cells = [e for e in events if e["kind"] == "cell"]
        assert sorted(e["data"]["cell"] for e in cells) == list(range(8))
