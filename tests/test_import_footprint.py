"""Import footprint: a process start loads only what its command runs.

The package is pure standard-library Python.  numpy being importable
in the environment must not pull it into every server and launcher
process, where it would cost resident memory and start-up time for
nothing.  In a fresh interpreter, a ``sys.meta_path`` finder placed
ahead of the standard ones records every attempt to import ``numpy``
while the service front end and the figure-8 campaign are imported.
Recording the attempt, rather than checking ``sys.modules`` afterwards,
also catches a guarded ``try: import numpy`` on a host where numpy is
not installed.

The same holds inside the package: package exports resolve on first
access, the CLI imports per command, and the scheduler and workload
registries list names without importing implementations.  So the
server does not load the studies, the scenario platform or the fleet,
the figure-8 campaign does not load the service, and ``lpfps serve``
is ready with a fixed budget of ``repro`` modules.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """\
import sys

attempts = []


class RecordNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
        return None


sys.meta_path.insert(0, RecordNumpy())
import repro.service.server
import repro.experiments.figure8

print(sorted(set(attempts)), "numpy" in sys.modules)
"""


LOADED = """\
import sys
import {module}

print(" ".join(sorted(name for name in sys.modules if name.startswith("repro"))))
"""

#: ``python -m repro serve``, stopped the moment it announces its URL.
SERVE_READY = """\
import builtins
import os
import runpy
import sys

announce = builtins.print


def print_then_count(*args, **kwargs):
    announce(*args, **kwargs)
    if args and str(args[0]).startswith("serving on"):
        names = sorted(name for name in sys.modules if name.startswith("repro"))
        announce("LOADED", " ".join(names), flush=True)
        os._exit(0)


builtins.print = print_then_count
sys.argv = ["repro", "serve", "--port", "0"]
runpy.run_module("repro", run_name="__main__")
"""

#: Modules a server start must not pay for.
NOT_FOR_SERVER = (
    "repro.experiments.ablations",
    "repro.experiments.extensions",
    "repro.experiments.robustness",
    "repro.experiments.table2",
    "repro.scenarios",
    "repro.service.fleet",
    "repro.service.supervisor",
    "repro.faults.campaign",
    "repro.schedulers.yds",
    "repro.schedulers.jcl",
    "repro.analysis.weakly_hard",
    "repro.sim.audit",
    "repro.sim.validate",
    "repro.viz",
)

#: ``repro`` modules loaded when ``lpfps serve`` is ready (107 when every
#: package imported all of its submodules).
SERVE_READY_BUDGET = 55


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return done.stdout


def _loaded(module: str) -> set:
    return set(_python(LOADED.format(module=module)).split())


def test_server_and_figure8_do_not_import_numpy():
    assert _python(PROBE).strip() == "[] False"


def test_server_import_skips_studies_scenarios_and_fleet():
    loaded = _loaded("repro.service.server")
    assert "repro.service.broker" in loaded
    assert sorted(loaded.intersection(NOT_FOR_SERVER)) == []


def test_figure8_import_skips_the_service_and_scenarios():
    loaded = _loaded("repro.experiments.figure8")
    assert "repro.experiments.runner" in loaded
    assert [
        name for name in sorted(loaded)
        if name.split(".")[:2] in (["repro", "service"], ["repro", "scenarios"])
    ] == []


def test_serve_is_ready_within_its_module_budget():
    lines = _python(SERVE_READY).splitlines()
    assert lines[0].startswith("serving on http://"), lines
    loaded = lines[1].split()[1:]
    assert "repro.service.server" in loaded
    assert len(loaded) <= SERVE_READY_BUDGET, loaded
    assert sorted(set(loaded).intersection(NOT_FOR_SERVER)) == []
