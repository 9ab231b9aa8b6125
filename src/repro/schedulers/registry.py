"""Name-based scheduler construction for the CLI and experiment harness."""

from __future__ import annotations

from importlib import import_module
from importlib.util import resolve_name
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .base import Scheduler

#: Registry name -> (defining module, class, constructor kwargs).  Names
#: only: listing them (CLI ``choices``, query validation) imports no
#: policy; :func:`make_scheduler` imports the one it builds.
_FACTORIES: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "fps": (".fps", "FpsScheduler", {}),
    "lpfps": ("..core.lpfps", "LpfpsScheduler", {}),
    "lpfps-opt": ("..core.lpfps", "LpfpsScheduler", {"speed_policy": "optimal"}),
    "lpfps-nodvs": ("..core.lpfps", "LpfpsScheduler", {"use_dvs": False}),
    "lpfps-nopd": ("..core.lpfps", "LpfpsScheduler", {"use_powerdown": False}),
    "lpfps-dual": ("..core.lpfps", "LpfpsScheduler", {"dual_level": True}),
    "fps-pd": (".powerdown", "TimerPowerDownFps", {}),
    "fps-pd-threshold": (".powerdown", "ThresholdPowerDownFps", {}),
    "edf": (".edf", "EdfScheduler", {}),
    "avr": (".edf", "AvrScheduler", {}),
    "static-fps": (".static_dvs", "StaticDvsFps", {}),
    "yds": (".yds", "YdsOracleScheduler", {}),
    "ccedf": (".cycle_conserving", "CcEdfScheduler", {}),
    "past": (".interval", "PastScheduler", {}),
    "jcl": (".jcl", "JclScheduler", {}),
}

#: Registry names whose policy accepts per-task weakly-hard (m,k)
#: constraints (scenario packs route their ``weakly_hard`` fields here).
WEAKLY_HARD_SCHEDULERS = frozenset({"jcl"})

#: Registry names of clairvoyant policies excluded from causal
#: comparisons (they read the whole job trace up front).
ORACLE_SCHEDULERS = frozenset({"yds"})


def available_schedulers() -> List[str]:
    """Registered scheduler names, sorted."""
    return sorted(_FACTORIES)


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by registry name."""
    try:
        module, cls, kwargs = _FACTORIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; "
            f"available: {', '.join(available_schedulers())}"
        ) from None
    return getattr(import_module(module, __package__), cls)(**kwargs)


def policy_modules() -> List[str]:
    """Absolute names of the modules defining the registered policies."""
    return sorted(
        {resolve_name(module, __package__) for module, _, _ in _FACTORIES.values()}
    )


def scheduler_capabilities() -> List[Dict[str, Any]]:
    """Machine-readable capability flags for every registered scheduler.

    One entry per registry name, sorted, each carrying the policy's
    display name and the flags tooling needs to pick or exclude it
    (tick-driven policies cost kernel wakeups; oracle policies are
    non-causal; ``weakly_hard`` marks (m,k)-aware dispatch).
    """
    entries: List[Dict[str, Any]] = []
    for key in available_schedulers():
        scheduler = make_scheduler(key)
        entries.append(
            {
                "name": key,
                "policy": scheduler.name,
                "requires_priorities": bool(scheduler.requires_priorities),
                "tick_driven": scheduler.tick_interval is not None,
                "weakly_hard": key in WEAKLY_HARD_SCHEDULERS,
                "oracle": key in ORACLE_SCHEDULERS,
            }
        )
    return entries
