"""Discrete-event RTOS kernel simulator: kernel, components, traces, metrics.

Layering (see DESIGN.md): the :class:`~repro.sim.engine.Simulator` kernel
owns the event loop and job lifecycle; :mod:`~repro.sim.power_accounting`,
:mod:`~repro.sim.speed_control`, :mod:`~repro.sim.sleep_control`, and
:mod:`~repro.sim.recording` are its explicit components.
"""

from .engine import Simulator, simulate
from .events import KEEP, NO_CHANGE, Decision, SchedEvent, SleepRequest
from .metrics import (
    DeadlineMiss,
    EnergyBreakdown,
    SimulationResult,
    TaskStats,
)
from .power_accounting import PowerAccountant
from .profile import Ramp, constant_time_to_complete, constant_work
from .queues import DelayQueue, RunQueue, deadline_key, priority_key
from .recording import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceBackedRecorder,
)
from .sleep_control import SleepController
from .speed_control import SpeedController
from .trace import PointEvent, Segment, TraceRecorder
from .audit import AuditResult, audit_energy, recompute_energy
from .validate import Violation, assert_valid, validate_trace

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
