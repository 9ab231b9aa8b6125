"""The public API contract of every ``repro`` package.

Package exports resolve on first access (:mod:`repro._lazy`), so what a
package offers is no longer the side effect of its imports.  These tests
pin the contract: every name in a package's ``__all__`` resolves through
``getattr``, ``from pkg import *`` binds every one of them, ``dir(pkg)``
lists them, submodules resolve as attributes after a bare package
import in a fresh interpreter, and every import example in README.md
runs.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._lazy import lazy_exports

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def _submodules(package: str):
    module = importlib.import_module(package)
    return sorted(
        info.name
        for info in pkgutil.iter_modules(module.__path__)
        if not info.name.startswith("_")
    )


def test_every_package_is_covered():
    assert len(PACKAGES) >= 14
    assert "repro.service" in PACKAGES and "repro.scenarios" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name

    def test_star_import_binds_all(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert sorted(set(module.__all__) - set(namespace)) == []

    def test_dir_lists_all(self, package):
        module = importlib.import_module(package)
        assert sorted(set(module.__all__) - set(dir(module))) == []

    def test_one_lazy_mechanism(self, package):
        module = importlib.import_module(package)
        assert module.__getattr__.__qualname__ == lazy_exports.__qualname__ + (
            ".<locals>.__getattr__"
        )

    def test_unknown_names_raise_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_name")
        assert not hasattr(module, "_no_such_name")


PROBE = """\
import importlib
import sys

package = importlib.import_module({package!r})
print(" ".join(sorted(name for name in sys.modules if name.startswith("repro"))))
missing = []
for name in {submodules!r}:
    value = getattr(package, name)
    module = sys.modules[{package!r} + "." + name]
    # An export named like its defining submodule stays the export.
    if value is not module and value is not getattr(module, name, None):
        missing.append(name)
print(" ".join(missing) or "ok")
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_bare_import_loads_nothing_and_resolves_submodules(package):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = PROBE.format(package=package, submodules=_submodules(package))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded, missing = done.stdout.splitlines()
    parts = package.split(".")
    chain = {".".join(parts[: i + 1]) for i in range(len(parts))}
    assert set(loaded.split()) == chain | {"repro._lazy"}
    assert missing == "ok"


SHADOWED = """\
import repro.schedulers.yds  # binds repro.analysis.hyperperiod, the module
import repro.service.broker  # binds repro.service.fingerprint, the module
from repro.analysis import hyperperiod
from repro.service import fingerprint
import repro.analysis.hyperperiod as module

print(callable(hyperperiod), callable(fingerprint), module is hyperperiod)
"""


def test_export_named_like_its_submodule_stays_the_export():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SHADOWED],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.split() == ["True", "True", "True"]


def _readme_imports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    statements = []
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.S):
        for match in re.finditer(
            r"^(?:from repro[\w.]* import (?:\([^)]*\)|.*)|import repro[\w.]*)$",
            block,
            flags=re.M,
        ):
            statements.append(match.group(0))
    return statements


def test_readme_has_import_examples():
    assert len(_readme_imports()) >= 5


@pytest.mark.parametrize("statement", _readme_imports())
def test_readme_import_example_runs(statement):
    exec(statement, {})
