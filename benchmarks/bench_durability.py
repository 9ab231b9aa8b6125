"""EXP-D benchmark: durable streamed campaigns survive a server SIGKILL.

A real ``lpfps serve --checkpoint-dir`` subprocess runs a 16-cell
campaign; it is SIGKILLed once half the cells have streamed.  A second
cold server over the same checkpoint directory resumes the orphaned
campaign and the client reconnects with ``?after=N``.  The gates from
ISSUE 10:

* the merged event sequence is gapless and duplicate-free, ending in
  the terminal ``done`` event;
* cell results are bit-identical to an uninterrupted in-process run;
* the resume wastes (almost) nothing: every cell durably journaled
  before the kill comes back as a checkpoint hit, so the recomputed
  fraction tracks only the genuinely unfinished tail (at most one
  in-flight cell is lost to the crash).

Reported metrics: wasted-recompute fraction, resume latency (restart to
terminal event), and the recomputed-cell fraction.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.scenarios import load_pack, parse_scenario
from repro.scenarios.runner import run_scenario
from repro.service.client import TRANSPORT_ERRORS, ServiceClient

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")
TOTAL_CELLS = 16


def _scenario_document():
    document = load_pack("ins").canonical_document()
    document["name"] = "exp_d_durability"
    document["campaign"] = {
        "schedulers": ["fps", "lpfps"],
        "seeds": [1, 2, 3, 4, 5, 6, 7, 8],
        "duration": 10_000_000.0,
    }
    return document


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _serve(checkpoint_dir, cache_dir):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--jobs", "1",
            "--cache-dir", str(cache_dir),
            "--checkpoint-dir", str(checkpoint_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_env(),
        text=True,
    )
    url = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith("serving on "):
            url = line.split("serving on ", 1)[1].strip()
            break
    assert url, "server never came up"
    return process, url


def _stop(process):
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)


def test_kill_resume_reconnect(tmp_path, artifact, metrics_out):
    document = _scenario_document()
    checkpoint, cache = tmp_path / "ckpt", tmp_path / "cache"

    # Phase 1: stream live, SIGKILL at >= 50% progress.
    process, url = _serve(checkpoint, cache)
    merged = []
    try:
        client = ServiceClient(url, timeout_s=60.0)
        status, payload = client.submit_scenario({"scenario": document})
        assert status == 200, payload
        campaign_id = payload["campaign_id"]
        try:
            for event in client.stream(campaign_id):
                merged.append(event)
                cells_seen = sum(1 for e in merged if e["kind"] == "cell")
                if cells_seen >= TOTAL_CELLS // 2:
                    process.kill()
                    process.wait(timeout=10.0)
                    break
        except TRANSPORT_ERRORS:
            pass
    finally:
        _stop(process)
    streamed_before_kill = sum(1 for e in merged if e["kind"] == "cell")
    assert streamed_before_kill >= TOTAL_CELLS // 2
    assert merged[-1]["kind"] != "done", "campaign outran the kill"

    # Phase 2: cold restart over the same checkpoint dir; reconnect.
    restart_started = time.monotonic()
    process, url = _serve(checkpoint, cache)
    try:
        client = ServiceClient(url, timeout_s=120.0)
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
        resume_latency_s = time.monotonic() - restart_started
    finally:
        _stop(process)

    # Gapless, duplicate-free, complete.
    assert merged[-1]["kind"] == "done", merged[-1]
    assert [e["seq"] for e in merged] == list(range(1, len(merged) + 1))
    cells = [e for e in merged if e["kind"] == "cell"]
    assert len(cells) == TOTAL_CELLS
    assert sorted(e["data"]["cell"] for e in cells) == list(range(TOTAL_CELLS))

    # Recompute accounting: post-restart "stored" cells are honest
    # recomputation; anything re-served from the journal is a "hit".
    recomputed = sum(
        1 for e in cells[streamed_before_kill:]
        if e["data"].get("checkpoint") == "stored"
    )
    unfinished = TOTAL_CELLS - streamed_before_kill
    wasted = max(0, recomputed - unfinished)
    wasted_fraction = wasted / TOTAL_CELLS
    assert wasted <= 1                       # at most the in-flight cell
    assert wasted_fraction < 0.10            # the ISSUE 10 resume gate

    # Bit-identity vs an uninterrupted in-process run.
    reference = run_scenario(parse_scenario(document), jobs=1)
    by_index = {e["data"]["cell"]: e["data"] for e in cells}
    for cell in reference.cells:
        data = by_index[cell.index]
        assert data["average_power"] == cell.result.average_power
        assert data["deadline_misses"] == len(cell.result.deadline_misses)

    # Every scrubber on a directory that was really SIGKILLed: repair
    # whatever the crash left behind, then a verify-only pass is clean.
    verify = [
        sys.executable, "-m", "repro", "cache", "verify",
        "--cache-dir", str(cache), "--checkpoint", str(checkpoint),
    ]
    for argv in (verify + ["--repair"], verify):
        scrub = subprocess.run(
            argv, env=_env(), capture_output=True, text=True, timeout=120.0
        )
        assert scrub.returncode == 0, scrub.stdout + scrub.stderr

    metrics_out("cells_total", TOTAL_CELLS)
    metrics_out("cells_streamed_at_kill", streamed_before_kill)
    metrics_out("cells_recomputed", recomputed)
    metrics_out("wasted_recompute_pct", round(100.0 * wasted_fraction, 2))
    metrics_out("resume_latency_wall_s", round(resume_latency_s, 3))
    artifact(
        "durability_kill_resume",
        "\n".join(
            [
                "EXP-D: SIGKILL server -> restart -> reconnect ?after=N",
                f"cells:                  {TOTAL_CELLS}",
                f"streamed before kill:   {streamed_before_kill}",
                f"recomputed on resume:   {recomputed}",
                f"wasted recompute:       {wasted} "
                f"({100.0 * wasted_fraction:.1f}%)",
                f"resume latency:         {resume_latency_s:.2f}s",
                "merged stream gapless + duplicate-free: OK",
                "bit-identity vs uninterrupted run:      OK",
            ]
        ),
    )
