"""Fixed-priority schedulability analysis substrate."""

from .._lazy import lazy_exports

__all__ = [
    "analyze",
    "is_schedulable",
    "response_time",
    "with_overhead",
    "RtaResult",
    "breakdown_utilization",
    "slack_factor",
    "BreakdownResult",
    "hyperperiod",
    "hyperperiod_jobs",
    "releases_within",
    "level_i_busy_period",
    "first_idle_instant",
    "liu_layland_bound",
    "passes_liu_layland",
    "passes_hyperbolic_bound",
    "passes_edf_bound",
    "total_utilization",
    "harmonic_chains",
    "is_fully_harmonic",
    "demand_bound",
    "edf_feasible",
    "edf_testing_horizon",
    "minimum_edf_speed",
    "testing_points",
    "wcet_margins",
    "SensitivityResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".breakdown": ("BreakdownResult", "breakdown_utilization", "slack_factor"),
        ".demand": (
            "demand_bound",
            "edf_feasible",
            "edf_testing_horizon",
            "minimum_edf_speed",
            "testing_points",
        ),
        ".hyperperiod": (
            "first_idle_instant",
            "hyperperiod",
            "hyperperiod_jobs",
            "level_i_busy_period",
            "releases_within",
        ),
        ".rta": (
            "RtaResult",
            "analyze",
            "is_schedulable",
            "response_time",
            "with_overhead",
        ),
        ".sensitivity": ("SensitivityResult", "wcet_margins"),
        ".utilization": (
            "harmonic_chains",
            "is_fully_harmonic",
            "liu_layland_bound",
            "passes_edf_bound",
            "passes_hyperbolic_bound",
            "passes_liu_layland",
            "total_utilization",
        ),
    },
)
