"""Name-based workload lookup for the CLI and experiment harness."""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .base import Workload

#: Registry name -> (defining module, factory).  Names only: listing them
#: (CLI ``choices``) imports no workload; :func:`get_workload` imports
#: the one it builds.
_FACTORIES: Dict[str, Tuple[str, str]] = {
    "avionics": (".avionics", "avionics_workload"),
    "ins": (".ins", "ins_workload"),
    "flight_control": (".flight_control", "flight_control_workload"),
    "cnc": (".cnc", "cnc_workload"),
    "example": (".example_dac99", "example_workload"),
}

#: Alternate spellings accepted by :func:`get_workload` but kept out of
#: :func:`available_workloads` (and therefore out of CLI ``choices``
#: lists), so each workload still has exactly one canonical name.
_ALIASES: Dict[str, str] = {
    "example_dac99": "example",
}

#: The four applications of the paper's Table 2, in its row order.
TABLE2_NAMES = ("avionics", "ins", "flight_control", "cnc")


def available_workloads() -> List[str]:
    """Registered workload names, sorted (aliases excluded)."""
    return sorted(_FACTORIES)


def canonical_workload_name(name: str) -> str:
    """Resolve *name* (or an alias) to its canonical registry key."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        )
    return key


def get_workload(name: str) -> Workload:
    """Instantiate a workload by registry name or alias."""
    module, factory = _FACTORIES[canonical_workload_name(name)]
    return getattr(import_module(module, __package__), factory)()


def table2_workloads() -> List[Workload]:
    """The four Table 2 applications, in the paper's order."""
    return [get_workload(name) for name in TABLE2_NAMES]


def workload_capabilities() -> List[Dict[str, Any]]:
    """Machine-readable metadata for every registered workload.

    One entry per canonical name, sorted, carrying the facts dashboards
    and scenario validators need without scraping the Table 2 rendering.
    """
    entries: List[Dict[str, Any]] = []
    for key in available_workloads():
        workload = get_workload(key)
        lo, hi = workload.wcet_range
        entries.append(
            {
                "name": key,
                "tasks": workload.task_count,
                "utilization": round(workload.utilization, 6),
                "wcet_range_us": [lo, hi],
                "hyperperiod_us": workload.taskset.hyperperiod,
                "reconstructed": workload.reconstructed,
                "citation": workload.citation,
            }
        )
    return entries
