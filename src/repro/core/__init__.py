"""The paper's primary contribution: LPFPS and its speed-ratio math."""

from .._lazy import lazy_exports

__all__ = [
    "LpfpsScheduler",
    "heuristic_speed_ratio",
    "optimal_speed_ratio",
    "heuristic_is_safe",
    "work_balance_residual",
    "slowdown_window",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".lpfps": ("LpfpsScheduler",),
        ".speed": (
            "heuristic_is_safe",
            "heuristic_speed_ratio",
            "optimal_speed_ratio",
            "slowdown_window",
            "work_balance_residual",
        ),
    },
)
