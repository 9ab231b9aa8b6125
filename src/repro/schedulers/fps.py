"""Plain fixed-priority preemptive scheduling — the paper's FPS baseline.

The processor always runs at full speed; when no task is eligible it spins
in a busy-wait loop of NOP instructions whose average power is 20 % of a
typical instruction's (paper §4, ref. [19]).  The engine charges that idle
power automatically, so this policy only performs the L5–L11 dispatch.
"""

from __future__ import annotations

from ..sim.events import Decision, SchedEvent
from .base import Scheduler, fixed_priority_dispatch


class FpsScheduler(Scheduler):
    """Conventional fixed-priority preemptive scheduler (busy-wait idle)."""

    name = "FPS"

    def schedule(self, kernel, event: SchedEvent) -> Decision:
        """Dispatch by fixed priority; never touch speed or power state."""
        active = fixed_priority_dispatch(kernel)
        return Decision(active)
