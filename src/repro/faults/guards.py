"""Graceful-degradation guards: run-time containment of broken assumptions.

The paper proves LPFPS safe *given* its model; these guards bound the
damage when the model lies.  They are enforced by the simulation engine
(the "kernel"), not by the scheduling policy — a production RTOS would put
them in the same place, below the policy, so a buggy or deceived policy
cannot disable them.

Three guards:

* **Overrun watchdog** — while a task runs below full speed, the kernel
  tracks the ``C_i - E_i`` budget the slow-down was provisioned for
  (Eq. 3's numerator).  The moment the budget is exhausted with the job
  still incomplete — only possible when the job's true demand exceeds its
  WCET — the kernel snaps the processor back to full speed, bounding the
  damage of Eq. 3's now-stale denominator to one quantisation margin plus
  one ramp instead of the whole overrun at reduced speed.
* **Sleep guard** — re-validates ``t_a`` around the power-down timer.  A
  timer that fires *early* is re-armed to the intended wake time instead
  of waking (and likely re-sleeping, thrashing wake-up energy); a timer
  that would fire *late* is pre-empted by the release interrupt, so the
  processor never sleeps through an arrival.  On a hardware timer too
  broken to re-arm the same check degrades to busy-waiting out the
  remainder of the window, which is what the re-arm models.
* **Deadline-miss containment** — what to do when the active job is still
  running at its absolute deadline: ``"run-to-completion"`` (the paper's
  implicit behaviour; the miss is recorded when the job finally finishes)
  or ``"abort"`` (the kernel kills the job at the deadline so the overrun
  cannot cascade into lower-priority tasks).  Every miss records which
  containment applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError

#: Legal deadline-miss containment policies.
MISS_POLICIES = ("run-to-completion", "abort")

#: A fault campaign's default policy line-up: the paper's baseline and
#: headline policies plus the two strongest cross-paper rivals that
#: survive faults differently (registry names, so listing them imports
#: no policy).
DEFAULT_POLICIES = ("fps", "static-fps", "ccedf", "lpfps")


@dataclass(frozen=True)
class GuardConfig:
    """Which containment guards the kernel enforces."""

    overrun_watchdog: bool = False
    sleep_guard: bool = False
    miss_policy: str = "run-to-completion"

    def __post_init__(self) -> None:
        if self.miss_policy not in MISS_POLICIES:
            raise ConfigurationError(
                f"miss_policy must be one of {MISS_POLICIES}, "
                f"got {self.miss_policy!r}"
            )

    @property
    def any_active(self) -> bool:
        """True when at least one guard can change engine behaviour."""
        return self.overrun_watchdog or self.sleep_guard or self.miss_policy != "run-to-completion"

    @staticmethod
    def none() -> "GuardConfig":
        """No containment: the paper's idealised kernel."""
        return GuardConfig()

    @staticmethod
    def all(miss_policy: str = "run-to-completion") -> "GuardConfig":
        """Every guard armed (the production configuration)."""
        return GuardConfig(
            overrun_watchdog=True, sleep_guard=True, miss_policy=miss_policy
        )


@dataclass(frozen=True)
class GuardActivation:
    """Record of one guard intervention (also mirrored into the trace)."""

    time: float           #: simulation time of the intervention, µs
    guard: str            #: ``"watchdog"``, ``"sleep-guard"``, or ``"containment"``
    detail: str           #: what happened, e.g. the job snapped to full speed
    job: Optional[str] = None  #: affected job name, when job-specific

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        target = f" [{self.job}]" if self.job else ""
        return f"[t={self.time:.3f}] {self.guard}{target}: {self.detail}"
