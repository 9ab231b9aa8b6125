"""Pool workers never inherit a module another thread is importing.

Policy, scenario and injector modules are imported on first use, and
pool workers are forked from a threaded parent (a server's request
threads import them on demand).  A module lock held by another thread at
the instant of the fork stays held in every child for good, so a worker
that then imports that module hangs forever.  The runner imports every
module a worker can need before it forks, which waits out any import in
flight.  The probe holds module locks on a second thread while an FPS
campaign warms a two-worker pool, then runs a faulted scenario campaign
on that pool: once with an FPS policy's lock held, once with the locks of
the scenario runner (whose factories a scenario cell unpickles) and of
the injectors (which those factories build).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """\
import json
import sys
import threading
import time
from contextlib import ExitStack
from importlib._bootstrap import _ModuleLockManager

from repro.experiments.runner import RunSpec, run_many
from repro.workloads.registry import get_workload

taskset = get_workload("cnc").prioritized()
held = threading.Event()


def imports_in_flight():
    with ExitStack() as stack:
        for name in sys.argv[1:]:
            stack.enter_context(_ModuleLockManager(name))
        held.set()
        time.sleep(1.0)


threading.Thread(target=imports_in_flight, daemon=True).start()
held.wait()
specs = [
    RunSpec(taskset=taskset, scheduler="fps", seed=seed, duration=20_000.0)
    for seed in range(4)
]
results = run_many(specs, jobs=2)
print(len(results), all(result.jobs_completed > 0 for result in results))

from repro.scenarios import parse_scenario
from repro.scenarios.registry import pack_path
from repro.scenarios.runner import run_scenario

document = json.loads(pack_path("cnc").read_text())
document["faults"] = {"injector": "wcet-overrun", "intensity": 0.5, "seed": 3}
report = run_scenario(parse_scenario(document), jobs=2)
print(len(report.cells), not any(cell.failed for cell in report.cells))
"""


@pytest.mark.parametrize(
    "in_flight",
    [
        ("repro.schedulers.fps",),
        ("repro.scenarios.runner", "repro.faults.injectors"),
    ],
)
def test_workers_forked_during_imports_still_run_every_cell(in_flight):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *in_flight],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.split() == ["4", "True", "2", "True"]
