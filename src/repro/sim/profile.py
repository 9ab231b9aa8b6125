"""Closed-form work integration over piecewise-linear speed profiles.

Between two scheduling points the processor speed is either constant or a
linear ramp (the ring-oscillator DVS model, :mod:`repro.power.transitions`),
so the work retired by the active job — ``∫ speed(t) dt`` in full-speed µs —
and the instant at which a given amount of work completes both have closed
forms.  The engine never ticks: it advances exactly from boundary to
boundary using these formulas, which keeps long simulations fast *and*
bit-reproducible.
"""

from __future__ import annotations

import math
from collections import namedtuple

#: Absolute tolerance (µs) for event simultaneity — two boundaries closer
#: than this are the same scheduling point.  Shared by the kernel and its
#: components so "simultaneous" means one thing everywhere.
TIME_EPS = 1e-9
#: Remaining-work threshold (full-speed µs) below which a job is complete.
WORK_EPS = 1e-6

_tuple_new = tuple.__new__


class Ramp(namedtuple("Ramp", ("start_time", "end_time", "from_speed", "to_speed"))):
    """A linear speed ramp between two scheduling targets.

    An immutable tuple record (built once per speed change, read on every
    boundary while it is in flight).

    Attributes
    ----------
    start_time / end_time:
        Absolute µs bounds of the ramp.
    from_speed / to_speed:
        Speed ratios at the bounds.
    """

    __slots__ = ()

    def __new__(
        cls, start_time: float, end_time: float, from_speed: float, to_speed: float
    ) -> "Ramp":
        if end_time < start_time:
            raise ValueError("ramp must not end before it starts")
        return _tuple_new(cls, (start_time, end_time, from_speed, to_speed))

    @property
    def duration(self) -> float:
        """Ramp length in µs."""
        return self.end_time - self.start_time

    @property
    def slope(self) -> float:
        """Signed speed change per µs (0 for a zero-length ramp)."""
        start, end, s0, s1 = self
        duration = end - start
        if duration == 0.0:
            return 0.0
        return (s1 - s0) / duration

    def speed_at(self, t: float) -> float:
        """Instantaneous speed ratio at absolute time *t* (clamped)."""
        start, end, s0, s1 = self
        if t <= start:
            return s0
        if t >= end:
            return s1
        # Strictly inside, so the duration is positive: ``slope`` inlined.
        return s0 + (s1 - s0) / (end - start) * (t - start)

    def work_between(self, t0: float, t1: float) -> float:
        """Full-speed µs retired between *t0* and *t1* (trapezoid; exact)."""
        if t1 < t0:
            raise ValueError(f"segment reversed: [{t0}, {t1}]")
        start, end, s0, s1 = self
        lo, hi = max(t0, start), min(t1, end)
        inside = max(0.0, hi - lo)
        work = 0.5 * (self.speed_at(lo) + self.speed_at(hi)) * inside
        # Portions outside the ramp run at the boundary speeds.
        if t0 < start:
            work += s0 * (min(t1, start) - t0)
        if t1 > end:
            work += s1 * (t1 - max(t0, end))
        return work

    def time_to_complete(self, now: float, remaining: float) -> float:
        """Absolute time at which *remaining* work finishes, starting *now*.

        Solves the quadratic along the ramp, then continues at ``to_speed``
        if the work outlasts the ramp.  ``to_speed`` must be positive for
        the overflow case (a job cannot finish on a ramp to zero).
        """
        if remaining <= 0.0:
            return now
        start, end, s0, s1 = self
        if now >= end:
            return constant_time_to_complete(now, remaining, s1)
        if now < start:
            ramp_work = self.work_between(now, end)
            v0 = s0
            k = self.slope
        else:
            # The kernel's case, ``now`` inside the ramp: ``slope``,
            # ``speed_at(now)`` and ``work_between(now, end)`` unrolled,
            # with the same float operations in the same order (the ramp
            # is not zero-length here, and ``speed_at(end)`` is ``s1``).
            k = (s1 - s0) / (end - start)
            v0 = s0 if now <= start else s0 + k * (now - start)
            ramp_work = 0.5 * (v0 + s1) * (end - now)
        if remaining > ramp_work + 1e-12:
            return constant_time_to_complete(end, remaining - ramp_work, s1)
        # Solve v0*x + k*x^2/2 = remaining for the elapsed time x >= 0.
        if abs(k) < 1e-15:
            return constant_time_to_complete(now, remaining, v0)
        disc = v0 * v0 + 2.0 * k * remaining
        if disc < 0.0:
            # Numerically impossible when remaining <= ramp_work; guard anyway.
            disc = 0.0
        if k > 0:
            x = (-v0 + math.sqrt(disc)) / k
        else:
            # Decreasing speed: take the earlier (physical) root.
            x = (v0 - math.sqrt(disc)) / (-k)
        return now + max(0.0, min(x, end - now))


def constant_work(t0: float, t1: float, speed: float) -> float:
    """Work retired over ``[t0, t1]`` at a constant speed ratio."""
    if t1 < t0:
        raise ValueError(f"segment reversed: [{t0}, {t1}]")
    return speed * (t1 - t0)


def constant_time_to_complete(now: float, remaining: float, speed: float) -> float:
    """Completion instant for *remaining* work at a constant *speed*.

    Returns ``inf`` when the speed is zero (stalled processor).
    """
    if remaining <= 0.0:
        return now
    if speed <= 0.0:
        return math.inf
    return now + remaining / speed
