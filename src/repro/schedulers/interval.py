"""Interval-based predictive DVS — the Weiser/Govil policies of §2.2.

"A scheduling method to reduce power consumption by adjusting the clock
speed ... was first proposed in [12] (Weiser et al.) and was later extended
in [13] (Govil et al.).  The basic method is that short-term processor
usage is predicted from a history of processor utilization. ... Because
latency exists when the prediction fails, these methods cannot be applied
to real-time systems."

This module implements the PAST policy (predict that the next interval
looks like the last one) on top of fixed-priority dispatch so the
reproduction can *measure* that disqualification: on the paper's workloads
the policy does save power — and misses hard deadlines while doing so
(benchmarked by EXP-A6).

Policy (Weiser et al., OSDI 1994, adapted to this kernel):

* time is divided into fixed ticks of ``interval`` µs;
* at each tick, compute the utilisation of the elapsed interval
  (busy time / interval, with queued-work backlog counted as excess);
* if the interval was busier than ``raise_threshold`` (or work is
  backlogged), raise the speed by ``step``; if emptier than
  ``lower_threshold``, lower it proportionally to the emptiness.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..sim.dispatch import Scheduler, fixed_priority_dispatch
from ..sim.events import Decision, SchedEvent

_EPS = 1e-9


class PastScheduler(Scheduler):
    """Weiser-style PAST interval prediction over FP dispatch.

    Parameters
    ----------
    interval:
        Tick length in µs (Weiser evaluated 10–50 ms on workstation
        traces; embedded workloads want shorter).
    raise_threshold / lower_threshold:
        Utilisation bounds triggering speed increases / decreases.
    step:
        Speed-ratio increment when raising.
    """

    requires_priorities = True

    def __init__(
        self,
        interval: float = 5_000.0,
        raise_threshold: float = 0.7,
        lower_threshold: float = 0.5,
        step: float = 0.2,
    ):
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        if not 0 <= lower_threshold <= raise_threshold <= 1:
            raise ConfigurationError(
                "need 0 <= lower_threshold <= raise_threshold <= 1"
            )
        if not 0 < step <= 1:
            raise ConfigurationError(f"step must be in (0, 1], got {step}")
        self.tick_interval = interval
        self.raise_threshold = raise_threshold
        self.lower_threshold = lower_threshold
        self.step = step
        self.name = f"PAST(T={interval:g})"
        self._speed = 1.0
        self._busy_since: Optional[float] = None
        self._busy_accum = 0.0
        self._last_tick = 0.0

    def setup(self, kernel) -> None:
        """Reset interval-tracking state."""
        self._speed = 1.0
        self._busy_since = None
        self._busy_accum = 0.0
        self._last_tick = 0.0

    # -- busy-time tracking --------------------------------------------------
    def _note_state(self, kernel, running: bool) -> None:
        now = kernel.now
        if self._busy_since is not None:
            self._busy_accum += now - self._busy_since
            self._busy_since = None
        if running:
            self._busy_since = now

    def _tick(self, kernel) -> None:
        now = kernel.now
        window = now - self._last_tick
        self._last_tick = now
        if window <= _EPS:
            return
        busy = self._busy_accum
        if self._busy_since is not None:
            busy += now - self._busy_since
            self._busy_since = now
        self._busy_accum = 0.0
        utilization = min(1.0, busy / window)
        backlogged = kernel.active_job is not None and not kernel.run_queue.empty
        if backlogged or utilization > self.raise_threshold:
            self._speed = min(1.0, self._speed + self.step)
        elif utilization < self.lower_threshold:
            # Weiser: lower toward the observed demand.
            self._speed = max(
                kernel.spec.min_speed,
                self._speed - (self.lower_threshold - utilization) * self.step,
            )
        self._speed = kernel.spec.quantized_speed(max(self._speed, _EPS))

    def schedule(self, kernel, event: SchedEvent) -> Decision:
        """FP dispatch at the PAST-predicted speed."""
        if event is SchedEvent.TICK:
            self._tick(kernel)
        active = fixed_priority_dispatch(kernel)
        self._note_state(kernel, running=active is not None)
        if active is None:
            # Workstation-style policy: no RTOS timer tricks, just idle.
            return Decision(run=None, speed_target=self._speed)
        return Decision(run=active, speed_target=self._speed)
