"""Sleep-control component: wake-timer programming and the sleep guard.

One :class:`SleepController` owns the power-down timer state: the armed
wake-up timer (possibly perturbed by a fault injector), the wake time the
scheduler *intended* (the sleep guard's reference), deferred sleep
requests (``SleepRequest.start_at``), and the sleep-entry counter.

The kernel stays in charge of the processor macro-state; this component
answers two questions for it:

* :meth:`wake_candidates` — while asleep, which instants could end the
  sleep (timer expiry, release interrupt, guard interrupt)?
* :meth:`resolve_boundary` — having stopped at such an instant, should
  the processor wake, or re-arm and stay asleep?  PR 1's sleep guard
  lives here: an early-firing timer is re-armed to the intended wake
  time, and a late timer is pre-empted by the release interrupt, so a
  broken timer cannot strand the kernel asleep through an arrival.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..faults.guards import GuardConfig
from .profile import TIME_EPS
from .queues import DelayQueue
from .recording import Recorder

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..faults.layer import FaultLayer

#: ``resolve_boundary`` actions: stay asleep or wake now.
STAY = "stay"
WAKE = "wake"


class SleepController:
    """Power-down timer state for one simulation run."""

    __slots__ = (
        "timer",
        "intended",
        "pending_at",
        "pending_until",
        "entries",
        "_faults",
        "_injecting",
        "_recorder",
    )

    def __init__(self, faults: Optional["FaultLayer"], recorder: Recorder) -> None:
        #: Absolute fire time of the armed wake-up timer (``None`` = sleep
        #: until an interrupt).  May differ from :attr:`intended` under an
        #: injected timer fault.
        self.timer: Optional[float] = None
        #: The wake time the scheduler programmed (fault-free reference).
        self.intended: Optional[float] = None
        #: Deferred sleep request: enter the mode at ``pending_at`` with
        #: the timer aimed at ``pending_until``.
        self.pending_at: Optional[float] = None
        self.pending_until: Optional[float] = None
        #: Number of completed power-down entries.
        self.entries: int = 0
        self._faults = faults
        self._injecting = faults is not None and faults.injects
        self._recorder = recorder

    # -- arming ------------------------------------------------------------
    def arm(self, now: float, until: Optional[float]) -> None:
        """Program the wake timer for a sleep starting *now*.

        *until* of ``None`` sleeps until an external interrupt.  Under
        fault injection the armed timer may drift from the intended time.
        """
        timer = until
        if until is not None and self._injecting:
            self._faults.advance_clock(now)
            timer = self._faults.perturb_wake_timer(now, until)
        self.timer = timer
        self.intended = until
        self.entries += 1
        if self._recorder.enabled:
            target = "interrupt" if until is None else f"{until:.3f}"
            self._recorder.event(now, "sleep", target)

    def defer(self, start_at: float, until: Optional[float]) -> None:
        """Remember a sleep request that begins at a future instant."""
        self.pending_at = start_at
        self.pending_until = until

    def clear_pending(self) -> None:
        """Drop any deferred sleep request."""
        self.pending_at = None
        self.pending_until = None

    def clear_timer(self) -> None:
        """Disarm the wake timer (the processor is waking)."""
        self.timer = None
        self.intended = None

    # -- boundary logic ----------------------------------------------------
    def wake_candidates(
        self, delay_queue: DelayQueue, guards: GuardConfig
    ) -> List[Tuple[float, str]]:
        """Instants that could end the current sleep, in guard order."""
        candidates: List[Tuple[float, str]] = []
        if self.timer is not None:
            candidates.append((self.timer, "timer"))
            if guards.sleep_guard:
                # Sleep guard: the release interrupt can pre-empt a timer
                # that would fire late.  In the fault-free case the timer
                # leads the release, so this candidate never wins and
                # behaviour is unchanged.
                release = delay_queue.next_release_time()
                if release is not None:
                    candidates.append((release, "sleep_interrupt"))
        else:
            release = delay_queue.next_release_time()
            if release is not None:
                candidates.append((release, "interrupt"))
        return candidates

    def resolve_boundary(
        self, now: float, delay_queue: DelayQueue, guards: GuardConfig
    ) -> Tuple[str, Optional[Tuple[str, str]]]:
        """Decide whether a sleep-mode boundary wakes the processor.

        Returns ``(action, guard)`` where *action* is :data:`STAY` or
        :data:`WAKE` and *guard* is ``(guard_name, detail)`` when the
        sleep guard intervened (the kernel records the activation before
        acting on it).  A re-arm mutates :attr:`timer` in place.
        """
        timer_fired = self.timer is not None and now >= self.timer - TIME_EPS
        release = delay_queue.next_release_time()
        release_due = release is not None and now >= release - TIME_EPS
        interrupted = self.timer is None and release_due
        if (
            timer_fired
            and guards.sleep_guard
            and self.intended is not None
            and now < self.intended - TIME_EPS
        ):
            # Sleep guard, early half: the timer fired before the wake
            # time LPFPS programmed.  Re-validate t_a and re-arm instead
            # of waking into an empty ready queue (and thrashing the
            # sleep loop through another wake-up).
            detail = f"timer fired {self.intended - now:.3f}us early; re-armed"
            self.timer = self.intended
            return STAY, ("sleep-guard", detail)
        guard_interrupt = (
            guards.sleep_guard
            and self.timer is not None
            and release_due
            and not timer_fired
        )
        if guard_interrupt:
            # Sleep guard, late half: a release is due but the broken
            # timer has not fired — wake on the release interrupt instead
            # of sleeping through the arrival.
            return WAKE, ("sleep-guard", "timer late; waking on release interrupt")
        if timer_fired or interrupted:
            return WAKE, None
        return STAY, None
