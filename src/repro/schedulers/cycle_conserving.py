"""Cycle-conserving EDF — the canonical successor to LPFPS's idea.

Pillai & Shin (SOSP 2001) generalised run-time slack reclamation beyond the
lone-task case: keep a per-task utilisation estimate that uses the *actual*
execution time of the most recent completed instance, and run EDF at the
sum of the estimates.

    release of task i:    U_i := C_i / T_i          (budget the worst case)
    completion of task i: U_i := actual_i / T_i     (reclaim the difference)
    at every change:      speed := quantize_up(sum U_i)

EDF at speed ``sum U_i`` is schedulable for implicit deadlines because the
instantaneous estimate never under-budgets any incomplete job.  Included
here as an *extension baseline*: it shows what the LPFPS recipe grows into
when the dynamic-priority route of the paper's §3.1 discussion is taken,
and it reclaims variation even when several tasks are eligible — the case
LPFPS's run-queue-empty precondition forgoes.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.dispatch import Scheduler, earliest_deadline_dispatch
from ..sim.events import Decision, SchedEvent, SleepRequest
from ..sim.queues import deadline_key
from ..tasks.job import Job

_EPS = 1e-9


class CcEdfScheduler(Scheduler):
    """Cycle-conserving EDF (Pillai & Shin) on the LPFPS processor model.

    Parameters
    ----------
    use_powerdown:
        Sleep through idle intervals with an exact timer (same idle policy
        as LPFPS, keeping comparisons about the speed rule).
    """

    name = "ccEDF"
    run_queue_key = staticmethod(deadline_key)
    requires_priorities = False

    def __init__(self, use_powerdown: bool = True):
        self.use_powerdown = use_powerdown
        self._utilization: Dict[str, float] = {}
        self._last_dispatched: Optional[Job] = None

    def setup(self, kernel) -> None:
        """Start from the worst-case utilisation estimates."""
        self._utilization = {
            t.name: t.utilization for t in kernel.taskset
        }
        self._last_dispatched = None

    # -- utilisation bookkeeping -------------------------------------------
    def _note_completion(self, kernel) -> None:
        job = self._last_dispatched
        if job is None or not job.completed:
            return
        task = job.task
        self._utilization[task.name] = job.execution_time / task.period

    def _note_releases(self, released) -> None:
        for job in released:
            task = job.task
            self._utilization[task.name] = task.utilization

    def _speed(self, kernel) -> float:
        total = sum(self._utilization.values())
        return kernel.spec.quantized_speed(min(1.0, max(total, _EPS)))

    def schedule(self, kernel, event: SchedEvent) -> Decision:
        """EDF dispatch at the cycle-conserving utilisation speed."""
        if event is SchedEvent.COMPLETION:
            self._note_completion(kernel)
        released = kernel.move_due_releases()
        self._note_releases(released)

        active = earliest_deadline_dispatch(kernel)
        self._last_dispatched = active
        if active is not None:
            return Decision(run=active, speed_target=self._speed(kernel))
        if self.use_powerdown:
            next_release = kernel.delay_queue.next_release_time()
            if next_release is not None:
                wake_at = next_release - kernel.spec.wakeup_delay
                if wake_at > kernel.now + _EPS:
                    return Decision(run=None, sleep=SleepRequest(until=wake_at))
        return Decision(run=None)
