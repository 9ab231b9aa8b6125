"""Power-accounting component: energy integration and speed residency.

One :class:`PowerAccountant` serves one simulation run.  The kernel tells
it what the processor did over each span of simulated time — executing at
a steady clock, ramping between speeds, busy-waiting, sleeping, waking,
or running the scheduler itself — and the accountant folds the energy
into the per-state :class:`~repro.sim.metrics.EnergyBreakdown` that the
result reports and :func:`~repro.sim.audit.audit_energy` cross-checks
against the trace.

The accountant memoises the voltage-model evaluations.  Speeds come from
a finite set (the processor's quantised frequency grid, plus the ramp
sample points between grid levels), so the alpha-power-law solve in
:meth:`~repro.power.voltage.AlphaPowerLawVoltage.voltage_for_speed` —
a square root per call, dominating the pre-refactor profile — hits the
cache almost always.  Cached values are the exact floats the model
returns, keeping energy totals bit-identical to uncached accounting.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..power.model import _RAMP_PANELS, PowerModel
from .metrics import EnergyBreakdown

#: Simpson sample fractions and weights for :data:`_RAMP_PANELS` panels,
#: precomputed so the memoised ramp integration repeats the exact float
#: sequence of :meth:`PowerModel.ramp_energy` without per-point division.
_SIMPSON_FRACS = tuple(i / _RAMP_PANELS for i in range(_RAMP_PANELS + 1))
_SIMPSON_WEIGHTS = tuple(
    1.0 if i in (0, _RAMP_PANELS) else (4.0 if i % 2 == 1 else 2.0)
    for i in range(_RAMP_PANELS + 1)
)


class PowerAccountant:
    """Per-run energy and residency bookkeeping for one power model."""

    __slots__ = (
        "energy",
        "speed_residency",
        "_power",
        "_sleep_power",
        "_active_cache",
        "_idle_cache",
        "_ramp_cache",
        "_steady_cache",
    )

    def __init__(self, power: PowerModel) -> None:
        self.energy = EnergyBreakdown()
        #: Simulated µs spent per (rounded) speed — Figure 8's residency.
        self.speed_residency: Dict[float, float] = {}
        self._power = power
        self._sleep_power = power.sleep_power()
        self._active_cache: Dict[float, float] = {}
        self._idle_cache: Dict[float, float] = {}
        self._ramp_cache: Dict[Tuple[float, float, float], float] = {}
        self._steady_cache: Dict[float, Tuple[float, float]] = {}

    # -- memoised model evaluations ---------------------------------------
    def active_power(self, speed: float) -> float:
        """``P(speed)/P(1)`` through the voltage model, memoised."""
        cache = self._active_cache
        p = cache.get(speed)
        if p is None:
            p = cache[speed] = self._power.active_power(speed)
        return p

    def ramp_energy(self, s0: float, s1: float, dt: float) -> float:
        """Energy of a linear ramp, memoised on the exact (s0, s1, dt).

        Cache misses replay :meth:`PowerModel.ramp_energy`'s Simpson sum
        with the *memoised* active-power lookups — the same floats in the
        same order, so the result is bit-identical to the model's while
        the per-sample voltage solves amortise across ramps that share
        endpoint speeds.
        """
        key = (s0, s1, dt)
        cache = self._ramp_cache
        e = cache.get(key)
        if e is None:
            if dt == 0.0:
                e = 0.0
            else:
                span = s1 - s0
                active = self._active_cache
                model = self._power.active_power
                total = 0.0
                for frac, weight in zip(_SIMPSON_FRACS, _SIMPSON_WEIGHTS):
                    s = s0 + span * frac
                    if s < 0.0:  # ``max(s, 0.0)``
                        s = 0.0
                    # ``active_power(s)``, inlined.
                    p = active.get(s)
                    if p is None:
                        p = active[s] = model(s)
                    total += weight * p
                e = total * (dt / _RAMP_PANELS) / 3.0
            cache[key] = e
        return e

    # -- per-state accumulation -------------------------------------------
    def run_constant(self, speed: float, dt: float) -> None:
        """Executing a job for *dt* µs at a steady *speed*."""
        self.energy.active += self.active_power(speed) * dt

    def run_steady(self, speed: float, dt: float) -> None:
        """Steady-speed execution plus its residency, in one call.

        The kernel's hottest accounting path: equivalent to
        ``run_constant(speed, dt)`` followed by ``residency(speed, dt)``
        (a constant-speed span's mean speed is the speed itself).  The
        active power and the residency key are memoised per speed.
        """
        cache = self._steady_cache
        entry = cache.get(speed)
        if entry is None:
            entry = cache[speed] = (self.active_power(speed), round(speed, 2))
        p, key = entry
        self.energy.active += p * dt
        res = self.speed_residency
        res[key] = res.get(key, 0.0) + dt

    def run_ramp(self, s0: float, s1: float, dt: float) -> None:
        """Executing (or stalled) through a speed ramp."""
        self.energy.ramp += self.ramp_energy(s0, s1, dt)

    def idle(self, speed: float, dt: float) -> None:
        """Busy-waiting on NOPs at *speed* (idle power memoised)."""
        cache = self._idle_cache
        p = cache.get(speed)
        if p is None:
            p = cache[speed] = self._power.idle_power(speed)
        self.energy.idle += p * dt

    def sleep(self, dt: float) -> None:
        """Power-down mode."""
        self.energy.sleep += self._sleep_power * dt

    def wakeup(self, dt: float) -> None:
        """Relocking after power-down; charged at full active power."""
        self.energy.wakeup += self.active_power(1.0) * dt

    def scheduler_constant(self, speed: float, dt: float) -> None:
        """Scheduler overhead executed at a steady *speed*."""
        self.energy.scheduler += self.active_power(speed) * dt

    def scheduler_ramp(self, s0: float, s1: float, dt: float) -> None:
        """Scheduler overhead executed while a ramp is in flight."""
        self.energy.scheduler += self.ramp_energy(s0, s1, dt)

    def residency(self, speed: float, dt: float) -> None:
        """Attribute *dt* µs of execution to *speed*'s residency bucket.

        Same bucketing as :func:`~repro.sim.metrics.merge_speed_residency`
        (two-decimal speed keys), inlined for the per-segment hot path.
        """
        if dt <= 0:
            return
        key = round(speed, 2)
        res = self.speed_residency
        res[key] = res.get(key, 0.0) + dt
