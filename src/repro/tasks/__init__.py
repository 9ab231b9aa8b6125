"""Periodic task model: tasks, jobs, priorities, and demand generators."""

from .._lazy import lazy_exports

__all__ = [
    "Task",
    "TaskSet",
    "Job",
    "ExecutionTimeModel",
    "WcetModel",
    "BcetModel",
    "GaussianModel",
    "MarkovModel",
    "UniformModel",
    "BimodalModel",
    "uunifast",
    "random_taskset",
    "rate_monotonic",
    "deadline_monotonic",
    "explicit",
    "audsley",
    "generation",
    "priority",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".generation": (
            "BcetModel",
            "BimodalModel",
            "ExecutionTimeModel",
            "GaussianModel",
            "MarkovModel",
            "UniformModel",
            "WcetModel",
            "random_taskset",
            "uunifast",
        ),
        ".job": ("Job",),
        ".priority": ("audsley", "deadline_monotonic", "explicit", "rate_monotonic"),
        ".task": ("Task", "TaskSet"),
    },
)
