"""A cold server answers racing first requests exactly.

Package exports and registry entries are imported on first use, so the
first requests a fresh ``lpfps serve`` answers import the policy,
workload and scenario modules on request threads, and its pool workers
import the policies on their first cell.  Eight first requests fired at
once at a server that has answered nothing must all succeed, each with
exactly the in-process answer.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.scenarios import load_pack, run_scenario
from repro.service.client import ServiceClient
from repro.service.query import parse_query
from repro.service.results import execute_query

REPO = pathlib.Path(__file__).resolve().parents[2]

QUERIES = [
    {"kind": "energy", "app": "ins", "scheduler": "lpfps", "bcet_ratio": 0.5,
     "duration": 20_000.0},
    {"kind": "energy", "app": "cnc", "scheduler": "ccedf", "duration": 20_000.0},
    {"kind": "energy", "app": "avionics", "scheduler": "fps-pd",
     "execution": "wcet", "duration": 20_000.0},
    {"kind": "rta", "app": "avionics"},
    {"kind": "rta", "app": "flight_control"},
    {"kind": "schedulability", "app": "ins"},
    {"kind": "schedulability", "app": "example"},
]
PACK = "weakly_hard"


@pytest.fixture()
def cold_server():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        announce = process.stdout.readline()
        assert "serving on http://" in announce, announce
        yield announce.strip().rsplit(" ", 1)[-1]
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def _post(url: str, path: str, body: dict):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read().decode())


def test_racing_first_requests_match_the_in_process_answers(cold_server):
    requests = [("/v1/query", query) for query in QUERIES]
    requests.append(("/v1/scenario", {"pack": PACK}))
    answers = [None] * len(requests)
    start = threading.Barrier(len(requests))

    def send(index: int) -> None:
        path, body = requests[index]
        start.wait()
        try:
            answers[index] = _post(cold_server, path, body)
        except Exception as exc:  # reported below, with the others
            answers[index] = (None, repr(exc))

    threads = [
        threading.Thread(target=send, args=(index,))
        for index in range(len(requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180)

    assert [status for status, _ in answers] == [200] * len(requests), answers
    for query, (_, payload) in zip(QUERIES, answers):
        assert payload == execute_query(parse_query(query)), query

    _, submitted = answers[-1]
    scenario = load_pack(PACK)
    assert submitted["fingerprint"] == scenario.fingerprint()
    streamed = list(ServiceClient(cold_server).stream(submitted["campaign_id"]))
    expected = []
    run_scenario(scenario, jobs=1, progress=expected.append)
    cells = sorted(
        (event["data"] for event in streamed if event["kind"] == "cell"),
        key=lambda event: event["cell"],
    )
    assert cells == sorted(expected, key=lambda event: event["cell"])
    assert streamed[-1]["kind"] == "done"
    assert streamed[-1]["data"]["failed"] == 0
