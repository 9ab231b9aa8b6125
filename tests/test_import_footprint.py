"""Import footprint: the server and campaign entry points stay numpy-free.

The package is pure standard-library Python.  numpy being importable
in the environment must not pull it into every server and launcher
process, where it would cost resident memory and start-up time for
nothing.  In a fresh interpreter, a ``sys.meta_path`` finder placed
ahead of the standard ones records every attempt to import ``numpy``
while the service front end and the figure-8 campaign are imported.
Recording the attempt, rather than checking ``sys.modules`` afterwards,
also catches a guarded ``try: import numpy`` on a host where numpy is
not installed.
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


def test_server_and_figure8_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[] False"
