"""Package exports that import their defining submodule on first use.

Every package ``__init__`` in :mod:`repro` re-exports through
:func:`lazy_exports` and imports no submodule itself, so a process
start loads only the modules its command runs: ``import
repro.service.server`` does not pay for the ablation studies, and
``import repro`` loads no submodule but this one.
``repro.sim.simulate`` (or ``from repro.sim import simulate``)
imports :mod:`repro.sim.engine` on first access and caches the value
in the package namespace; later accesses are plain attribute reads.  Submodules resolve the same way, so
``repro.experiments.runner`` works after a bare ``import
repro.experiments``.

Where an export shares its name with the submodule defining it
(``repro.analysis.hyperperiod``, ``repro.service.fingerprint``), the
export wins, as it did under an eager ``from .hyperperiod import
hyperperiod``: the import system binds every loaded submodule on its
package, and the package's ``__setattr__`` rebinds the export instead.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for *package*.

    *exports* maps each defining submodule (relative, e.g. ``".engine"``)
    to the names the package re-exports from it.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    shadowed = {name for name, module in origin.items() if module == "." + name}
    namespace = sys.modules[package].__dict__

    class Package(ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            if name in shadowed and isinstance(value, ModuleType):
                value = getattr(value, name)
            super().__setattr__(name, value)

    sys.modules[package].__class__ = Package

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
