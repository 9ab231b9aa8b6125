"""Scheduling policies: the LPFPS contribution and its baselines."""

from .._lazy import lazy_exports

__all__ = [
    "Scheduler",
    "fixed_priority_dispatch",
    "earliest_deadline_dispatch",
    "FpsScheduler",
    "LpfpsScheduler",
    "TimerPowerDownFps",
    "ThresholdPowerDownFps",
    "EdfScheduler",
    "AvrScheduler",
    "StaticDvsFps",
    "YdsOracleScheduler",
    "CcEdfScheduler",
    "PastScheduler",
    "make_scheduler",
    "available_schedulers",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..core.lpfps": ("LpfpsScheduler",),
        ".base": ("Scheduler", "earliest_deadline_dispatch", "fixed_priority_dispatch"),
        ".cycle_conserving": ("CcEdfScheduler",),
        ".edf": ("AvrScheduler", "EdfScheduler"),
        ".fps": ("FpsScheduler",),
        ".interval": ("PastScheduler",),
        ".powerdown": ("ThresholdPowerDownFps", "TimerPowerDownFps"),
        ".registry": ("available_schedulers", "make_scheduler"),
        ".static_dvs": ("StaticDvsFps",),
        ".yds": ("YdsOracleScheduler",),
    },
)
