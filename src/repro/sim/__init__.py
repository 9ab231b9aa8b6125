"""Discrete-event RTOS kernel simulator: kernel, components, traces, metrics.

Layering (see DESIGN.md): the :class:`~repro.sim.engine.Simulator` kernel
owns the event loop and job lifecycle; :mod:`~repro.sim.power_accounting`,
:mod:`~repro.sim.speed_control`, :mod:`~repro.sim.sleep_control`, and
:mod:`~repro.sim.recording` are its explicit components.
"""

from .._lazy import lazy_exports

__all__ = [
    "Simulator",
    "simulate",
    "PowerAccountant",
    "SpeedController",
    "SleepController",
    "Recorder",
    "NullRecorder",
    "TraceBackedRecorder",
    "NULL_RECORDER",
    "Decision",
    "SchedEvent",
    "SleepRequest",
    "KEEP",
    "NO_CHANGE",
    "SimulationResult",
    "EnergyBreakdown",
    "TaskStats",
    "DeadlineMiss",
    "RunQueue",
    "DelayQueue",
    "priority_key",
    "deadline_key",
    "Ramp",
    "constant_work",
    "constant_time_to_complete",
    "TraceRecorder",
    "Segment",
    "PointEvent",
    "validate_trace",
    "assert_valid",
    "Violation",
    "audit_energy",
    "recompute_energy",
    "AuditResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".audit": ("AuditResult", "audit_energy", "recompute_energy"),
        ".engine": ("Simulator", "simulate"),
        ".events": ("KEEP", "NO_CHANGE", "Decision", "SchedEvent", "SleepRequest"),
        ".metrics": (
            "DeadlineMiss",
            "EnergyBreakdown",
            "SimulationResult",
            "TaskStats",
        ),
        ".power_accounting": ("PowerAccountant",),
        ".profile": ("Ramp", "constant_time_to_complete", "constant_work"),
        ".queues": ("DelayQueue", "RunQueue", "deadline_key", "priority_key"),
        ".recording": (
            "NULL_RECORDER",
            "NullRecorder",
            "Recorder",
            "TraceBackedRecorder",
        ),
        ".sleep_control": ("SleepController",),
        ".speed_control": ("SpeedController",),
        ".trace": ("PointEvent", "Segment", "TraceRecorder"),
        ".validate": ("Violation", "assert_valid", "validate_trace"),
    },
)
