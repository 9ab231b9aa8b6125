"""Speed-control component: the DVS ramp state machine.

One :class:`SpeedController` owns everything about the processor clock:
the current speed ratio, the in-flight :class:`~repro.sim.profile.Ramp`
(when the transition model is not instantaneous), the pre-arranged timed
speed change (the paper's Figure 6(b) up-ramp / dual-level mid-window
switch), and the speed-change counter.

Scheduler decisions reach it through :meth:`set_target`, which applies
the processor's transition model — and, under fault injection, lets the
DVS injectors drop, clamp, or stretch the request (the overrun
watchdog's fail-safe snap bypasses them with ``faultable=False``).  The
kernel reads ramp boundaries for event scheduling and asks
:meth:`time_for_work` when the active job's completion instant depends
on the speed profile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..power.processor import ProcessorSpec
from .profile import Ramp, TIME_EPS, WORK_EPS, constant_time_to_complete
from .recording import Recorder

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..faults.layer import FaultLayer


class SpeedController:
    """Ramp state machine for one simulation run."""

    __slots__ = (
        "speed",
        "ramp",
        "changes",
        "restore_at",
        "restore_target",
        "_rho",
        "_executes",
        "_faults",
        "_injecting",
        "_recorder",
    )

    def __init__(
        self,
        spec: ProcessorSpec,
        faults: Optional["FaultLayer"],
        recorder: Recorder,
    ) -> None:
        #: Current speed ratio (the *start* speed while a ramp is in flight).
        self.speed: float = 1.0
        #: In-flight speed transition, or ``None`` at a steady clock.
        self.ramp: Optional[Ramp] = None
        #: Number of accepted speed-change requests.
        self.changes: int = 0
        #: Pre-arranged timed change: begin ramping toward
        #: :attr:`restore_target` at :attr:`restore_at` without a
        #: scheduler pass (``None`` = nothing armed).
        self.restore_at: Optional[float] = None
        self.restore_target: float = 1.0
        # The transition model, read once per run: slew rate (1/µs,
        # ``None`` = instantaneous) and whether work retires mid-ramp.
        self._rho = spec.transition.rho
        self._executes = spec.transition.executes_during_change
        self._faults = faults
        self._injecting = faults is not None and faults.injects
        self._recorder = recorder

    # -- queries ----------------------------------------------------------
    def current_target(self) -> float:
        """The speed the processor is at or heading toward."""
        return self.ramp.to_speed if self.ramp is not None else self.speed

    def speed_at(self, t: float) -> float:
        """Instantaneous speed ratio at absolute time *t*."""
        return self.ramp.speed_at(t) if self.ramp is not None else self.speed

    def time_for_work(self, now: float, work: float) -> float:
        """Absolute time at which *work* full-speed µs will have executed.

        Ramp-aware: under a stall-during-change transition model the work
        only starts retiring once the ramp completes.
        """
        if work <= WORK_EPS:
            return now
        ramp = self.ramp
        if ramp is not None:
            if self._executes:
                return ramp.time_to_complete(now, work)
            return constant_time_to_complete(ramp.end_time, work, ramp.to_speed)
        return constant_time_to_complete(now, work, self.speed)

    # -- ramp lifecycle ----------------------------------------------------
    def finish_ramp_if_past(self, t: float) -> None:
        """Settle the ramp at its target once *t* reaches its end."""
        if self.ramp is not None and t >= self.ramp.end_time - TIME_EPS:
            self.speed = self.ramp.to_speed
            self.ramp = None

    def freeze(self, now: float) -> None:
        """Stop ramping and hold the instantaneous speed (sleep entry)."""
        if self.ramp is not None:
            self.speed = self.ramp.speed_at(now)
            self.ramp = None

    # -- timed-restore bookkeeping ----------------------------------------
    def arm_restore(self, at: float, target: float) -> None:
        """Arm a timed speed change (replaces any armed one)."""
        self.restore_at = at
        self.restore_target = target

    def cancel_restore(self) -> None:
        """Disarm the timed speed change."""
        self.restore_at = None
        self.restore_target = 1.0

    def take_due_restore(self, now: float) -> Optional[float]:
        """Pop the armed restore target if its time has come."""
        if self.restore_at is not None and now >= self.restore_at - TIME_EPS:
            target = self.restore_target
            self.cancel_restore()
            return target
        return None

    # -- the DVS write -----------------------------------------------------
    def set_target(self, now: float, target: float, faultable: bool = True) -> None:
        """Aim the clock/voltage at *target* per the transition model.

        A request equal to the prevailing target is a no-op (and draws
        nothing from the fault RNG).  ``faultable=False`` bypasses the
        DVS fault injectors — the one direct full-speed write a safety
        kernel must trust (the overrun watchdog's fail-safe snap).
        """
        ramp = self.ramp
        if ramp is not None:
            current_target = ramp.to_speed
            start_speed = ramp.speed_at(now)
        else:
            current_target = start_speed = self.speed
        if abs(target - current_target) <= 1e-12:
            return
        if faultable and self._injecting:
            # DVS hardware faults: the regulator may drop or clamp the
            # request.
            self._faults.advance_clock(now)
            effective = self._faults.perturb_speed_request(start_speed, target)
            if effective is None:
                return
            target = effective
            if abs(target - current_target) <= 1e-12:
                return
        self.changes += 1
        if self._recorder.enabled:
            self._recorder.event(now, "speed", f"{target:.4f}")
        rho = self._rho
        if rho is None:
            self.speed = target
            self.ramp = None
            return
        # ``TransitionModel.duration``, inlined.
        duration = abs(target - start_speed) / rho
        if faultable and self._injecting:
            duration *= self._faults.transition_duration_factor()
        if duration <= TIME_EPS:
            self.speed = target
            self.ramp = None
            return
        self.speed = start_speed
        self.ramp = Ramp(now, now + duration, start_speed, target)
