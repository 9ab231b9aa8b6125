"""The LPFPS scheduler — Figure 4 of the paper.

Low Power Fixed Priority Scheduling extends the conventional fixed-priority
scheduler with three behaviours, keyed off the run-time queues:

* **L1–L4** — whenever the scheduler is entered below full speed, it first
  raises the clock/voltage back to maximum and "exits"; the scheduling body
  runs when the ramp completes (the processor keeps executing the active
  job during the ramp under ring-oscillator clocking).
* **L13–L15** — run queue empty and no active task: every task sits in the
  delay queue, so the next request time is known exactly; set the wake-up
  timer to ``next release − wakeup_delay`` and power down.
* **L16–L19** — run queue empty but one task active: the processor belongs
  to that task until the next request arrives, so stretch its remaining
  worst-case work over that window by lowering the clock frequency to the
  smallest *available* frequency at or above the computed ratio, and the
  supply voltage with it.

Configuration knobs support the paper's two ratio computations
(``speed_policy`` = ``"heuristic"`` (Eq. 3, default) or ``"optimal"``
(Eq. 2)) and the mechanism ablations (``use_dvs`` / ``use_powerdown``).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..sim.dispatch import Scheduler, fixed_priority_dispatch
from ..sim.events import NO_CHANGE, Decision, SchedEvent, SleepRequest
from ..sim.profile import TIME_EPS
from .speed import heuristic_speed_ratio, optimal_speed_ratio, slowdown_window

_EPS = 1e-9
#: Hoisted: an ``Enum`` class-attribute lookup is measurable per pass.
_RAMP_DONE = SchedEvent.RAMP_DONE


class LpfpsScheduler(Scheduler):
    """Low Power Fixed Priority Scheduling (Shin & Choi, DAC 1999).

    Parameters
    ----------
    speed_policy:
        ``"heuristic"`` uses Eq. (3) (``r = (C_i−E_i)/(t_a−t_c)``, the
        paper's experimental configuration); ``"optimal"`` uses Eq. (2),
        which accounts for the final ramp back to full speed.
    use_dvs:
        Enable the lone-task slow-down hook (L16–L19).
    use_powerdown:
        Enable the exact-timer power-down hook (L13–L15).
    wakeup_margin:
        Robustness knob: arm the wake-up timer at
        ``next_release − wakeup_delay · (1 + margin)`` instead of the
        paper-exact ``next_release − wakeup_delay``.  A positive margin
        buys headroom against a late-firing timer (see the ``wake-timer``
        fault injector) at the cost of waking — and burning idle power —
        that much earlier on every sleep.  Default 0 is paper-exact.
    """

    def __init__(
        self,
        speed_policy: str = "heuristic",
        use_dvs: bool = True,
        use_powerdown: bool = True,
        eager_restore: Optional[bool] = None,
        dual_level: bool = False,
        wakeup_margin: float = 0.0,
    ):
        if speed_policy not in ("heuristic", "optimal"):
            raise ConfigurationError(
                f"speed_policy must be 'heuristic' or 'optimal', got {speed_policy!r}"
            )
        self.speed_policy = speed_policy
        self.use_dvs = use_dvs
        self.use_powerdown = use_powerdown
        # The optimal profile (Figure 6(b)) schedules the up-ramp so full
        # speed is reached exactly at the next arrival; the heuristic
        # (Figure 6(c)) ignores the delay and restores lazily via L1-L4.
        if eager_restore is None:
            eager_restore = speed_policy == "optimal"
        self.eager_restore = eager_restore
        # Dual-level (Ishihara-Yasuura, paper ref. [16]) quantisation:
        # split the window between the two grid levels adjacent to the
        # ideal ratio instead of rounding up.  Uses the same timed-change
        # slot as the eager restore, so the two are mutually exclusive.
        if dual_level and eager_restore:
            raise ConfigurationError(
                "dual_level and eager_restore both need the timed speed "
                "change; enable at most one"
            )
        self.dual_level = dual_level
        if wakeup_margin < 0:
            raise ConfigurationError(
                f"wakeup_margin must be >= 0, got {wakeup_margin}"
            )
        self.wakeup_margin = wakeup_margin
        # False only while the L1-L4 restore ramp is in flight: the end of
        # any other ramp (a deliberate slow-down, a timed restore) changes
        # nothing, so the kernel may skip that RAMP_DONE pass.
        self.ramp_done_is_noop = True
        self.name = self._build_name()

    def _build_name(self) -> str:
        name = "LPFPS"
        if self.speed_policy == "optimal":
            name += "-opt"
        if not self.use_dvs:
            name += "-nodvs"
        if not self.use_powerdown:
            name += "-nopd"
        if self.eager_restore and self.speed_policy == "heuristic":
            name += "-eager"
        if self.dual_level:
            name += "-dual"
        return name

    def setup(self, kernel) -> None:
        """Reset per-run state so one policy object can serve many runs."""
        self.ramp_done_is_noop = True
        # L14's timer lead, fixed per run.
        self._wake_lead = kernel.spec.wakeup_delay * (1.0 + self.wakeup_margin)

    def schedule(self, kernel, event: SchedEvent) -> Decision:
        """One pass of the Figure-4 pseudo-code."""
        # L5–L7, hoisted above the L1–L4 speed restore: due requests enter
        # the run queue immediately even while the ramp back to full speed
        # is in flight.  Dispatching still waits for full speed, so the
        # observable schedule matches the paper; hoisting only keeps the
        # "pending request" state (and the engine's release bookkeeping)
        # accurate during the ramp.  A pass with nothing due skips the call.
        heap = kernel.delay_queue._heap
        if heap and heap[0][0] <= kernel.now + TIME_EPS:
            kernel.move_due_releases()

        if event is _RAMP_DONE and self.ramp_done_is_noop:
            # End of a deliberate slow-down ramp: keep executing at the
            # reduced speed; nothing else changed.
            return NO_CHANGE

        spec = kernel.spec
        restored_now = False
        if not kernel.at_full_speed:
            if not spec.transition.instantaneous:
                # L1–L4: raise the clock and supply voltage to maximum and
                # exit; the body runs when the ramp-done event fires.
                self.ramp_done_is_noop = False
                return Decision(speed_target=1.0)
            # Zero-delay transitions: the restore completes immediately, so
            # fold it into this same scheduling pass.
            restored_now = True
        self.ramp_done_is_noop = True

        # L8–L11: conventional fixed-priority dispatch.
        active = fixed_priority_dispatch(kernel)

        if active is None:
            decision = self._idle_decision(kernel)
            if restored_now and decision.sleep is None:
                decision = Decision(run=None, speed_target=1.0)
            return decision

        if not kernel.run_queue._heap and self.use_dvs:
            decision = self._lone_task_decision(kernel, spec, active)
            if decision is not None:
                return decision
        if restored_now:
            return Decision(active, 1.0)
        return Decision(active)

    # -- L13–L15: power down with the timer armed at the next request ------
    def _idle_decision(self, kernel) -> Decision:
        heap = kernel.delay_queue._heap
        if self.use_powerdown and heap:
            wake_at = heap[0][0] - self._wake_lead
            if wake_at > kernel.now + _EPS:
                return Decision(None, None, SleepRequest(wake_at))
        # Power-down disabled or not worthwhile: busy-wait until the release.
        return Decision(None)

    # -- L16–L19: stretch the lone active task over its private window -----
    def _lone_task_decision(self, kernel, spec, active):
        task = active.task
        heap = kernel.delay_queue._heap
        window = slowdown_window(
            kernel.now,
            heap[0][0] if heap else None,
            active.release_time + task.period,
            active.absolute_deadline,
        )
        # C_i - E_i; ``Job.remaining_wcet`` clamps it at 0, which the
        # no-slack test below already covers.
        remaining = task.wcet - active.executed
        if remaining <= _EPS or window <= remaining + _EPS:
            return None  # no usable slack; run at full speed
        if self.speed_policy == "optimal":
            ratio = optimal_speed_ratio(remaining, window, spec.transition.rho)
        else:
            ratio = heuristic_speed_ratio(remaining, window)
        # L18: smallest available clock frequency >= ratio * f_max.
        speed = spec.grid.speed_for_ratio(max(ratio, _EPS))
        if speed >= 1.0 - _EPS:
            return None
        if self.dual_level and not spec.grid.continuous:
            decision = self._dual_level_decision(kernel, spec, active, ratio, window)
            if decision is not None:
                return decision
        if self.eager_restore and not spec.transition.instantaneous:
            # Arm the up-ramp so the processor is back at full speed exactly
            # when the window closes (Figure 6(b)).
            restore_at = (kernel.now + window) - (1.0 - speed) / spec.transition.rho
            if restore_at <= kernel.now + _EPS:
                return None  # no room for the return ramp: stay at full speed
            return Decision(active, speed, None, restore_at)
        return Decision(active, speed)

    def _dual_level_decision(self, kernel, spec, active, ratio, window):
        """Ishihara–Yasuura split: run the two grid levels adjacent to the
        ideal ratio so the window's *average* speed equals the ratio.

        The slow level runs first.  That is deadline-safe here because the
        window belongs exclusively to the active task (run queue empty and
        ``t_a`` bounds every other arrival), and at WCET demand the split
        still completes exactly at the window's end; running slow first
        additionally preserves slack reclamation — an early completion
        skips the fast phase entirely instead of the slow one.  Returns
        ``None`` when the ratio lands on a grid level (nothing to split).
        """
        lo, hi = spec.grid.adjacent_speeds(max(ratio, _EPS))
        if hi - lo <= _EPS or ratio <= lo + _EPS:
            return None
        slow_time = window * (hi - ratio) / (hi - lo)
        if slow_time <= _EPS or slow_time >= window - _EPS:
            return None
        return Decision(
            run=active,
            speed_target=lo,
            restore_at=kernel.now + slow_time,
            restore_target=hi,
        )
