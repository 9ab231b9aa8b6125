"""LPFPS — Low Power Fixed Priority Scheduling for hard real-time systems.

A full reproduction of Shin & Choi, *Power Conscious Fixed Priority
Scheduling for Hard Real-Time Systems* (DAC 1999): the LPFPS scheduler, a
variable-voltage processor model, an exact discrete-event RTOS simulator,
baseline schedulers, the paper's four application workloads, and an
experiment harness regenerating every table and figure.

Quickstart
----------
>>> from repro import LpfpsScheduler, FpsScheduler, simulate
>>> from repro.workloads import ins_workload
>>> from repro.tasks import GaussianModel
>>> ts = ins_workload().prioritized().with_bcet_ratio(0.5)
>>> lpfps = simulate(ts, LpfpsScheduler(), execution_model=GaussianModel())
>>> fps = simulate(ts, FpsScheduler(), execution_model=GaussianModel())
>>> lpfps.average_power < fps.average_power
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Task",
    "TaskSet",
    "Simulator",
    "simulate",
    "ProcessorSpec",
    "LpfpsScheduler",
    "FpsScheduler",
    "heuristic_speed_ratio",
    "optimal_speed_ratio",
    "ReproError",
    "ConfigurationError",
    "InvalidTaskError",
    "InvalidTaskSetError",
    "SchedulingError",
    "DeadlineMissError",
    "SimulationError",
    "AnalysisError",
    "FaultLayer",
    "GuardConfig",
    "make_injector",
    "faults",
    "tasks",
    "analysis",
    "power",
    "sim",
    "schedulers",
    "core",
    "workloads",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core.lpfps": ("LpfpsScheduler",),
        ".core.speed": ("heuristic_speed_ratio", "optimal_speed_ratio"),
        ".errors": (
            "AnalysisError",
            "ConfigurationError",
            "DeadlineMissError",
            "InvalidTaskError",
            "InvalidTaskSetError",
            "ReproError",
            "SchedulingError",
            "SimulationError",
        ),
        ".faults.guards": ("GuardConfig",),
        ".faults.injectors": ("make_injector",),
        ".faults.layer": ("FaultLayer",),
        ".power.processor": ("ProcessorSpec",),
        ".schedulers.fps": ("FpsScheduler",),
        ".sim.engine": ("Simulator", "simulate"),
        ".tasks.task": ("Task", "TaskSet"),
    },
)
