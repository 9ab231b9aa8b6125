"""JCL — job-class-level fixed-priority scheduling for weakly-hard tasks.

Task-level fixed priorities order every job of a task identically, which
makes many weakly-hard (m,k) task systems unschedulable: whichever task
sits at the bottom of the priority order starves *every* window, even
when the constraints only need each task to win some of the time.  Choi,
Kim & Zhu's job-class-level (JCL) scheduling fixes the priority per
**job class** instead: jobs of one task are divided into classes by the
length of the most recent sequence of consecutive deadline hits, and the
class — not the task — carries the fixed priority.

This implementation uses two tiers derived from each task's constraint
(:mod:`repro.analysis.weakly_hard`):

* **urgent** — the task's hit streak is below its demotion threshold
  ``h``: a further miss could over-draw some (m,k) window, so the job
  keeps the task's base (rate-monotonic) priority at the top tier;
* **demoted** — the streak has reached ``h``: the worst continuation
  (this job misses, resetting the streak) still satisfies every window,
  so the job yields to all urgent jobs and competes at the bottom tier
  by base priority.

A job's class is fixed at release (the streak state when it enters the
run queue) and memoised, matching "job-class-level *fixed* priority":
the queue ordering never changes under a job while it waits.  Outcomes
feed back at completion/abort boundaries: a hit extends the streak, a
miss resets it, so after a miss the task's next job is promoted back to
the urgent tier — the consecutive-hit-count class transition.

Tasks without a constraint are treated as hard (never demoted), which
makes JCL collapse exactly onto plain FPS dispatch for ordinary task
sets — the property the golden fixtures pin.  JCL never touches DVS or
power-down; it is a dispatch-only policy like FPS.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..analysis.weakly_hard import (
    ConstraintLike,
    WeaklyHard,
    coerce_constraints,
)
from ..errors import ConfigurationError
from ..sim.events import Decision, SchedEvent
from ..tasks.job import Job
from .base import Scheduler

_TIME_EPS = 1e-9

#: Key offset separating the demoted tier from the urgent tier; must
#: exceed any base priority (priorities are small per-task-set ints).
_TIER_SPAN = 1 << 20

#: A job's identity for the memo/in-flight tables (unique per run).
_JobKey = Tuple[str, int]


class JclScheduler(Scheduler):
    """Job-class-level fixed priorities with streak-driven class moves.

    Parameters
    ----------
    constraints:
        Optional mapping of task name to an (m, k) pair or
        :class:`~repro.analysis.weakly_hard.WeaklyHard`.  Tasks not
        named are hard (never demoted).  Names are validated against
        the task set in :meth:`setup`.
    """

    name = "JCL"
    requires_priorities = True

    def __init__(
        self, constraints: Optional[Mapping[str, ConstraintLike]] = None
    ):
        self.constraints: Dict[str, WeaklyHard] = coerce_constraints(constraints)
        #: Instance attribute shadowing the class-level key so the kernel
        #: builds its run queue over job-class priorities (the kernel
        #: reads ``scheduler.run_queue_key`` once, at construction).
        self.run_queue_key = self._key
        self._thresholds: Dict[str, Optional[int]] = {}
        self._streaks: Dict[str, int] = {}
        self._keys: Dict[_JobKey, float] = {}
        self._inflight: Dict[_JobKey, Job] = {}

    # ------------------------------------------------------------------ #
    # Kernel hooks                                                        #
    # ------------------------------------------------------------------ #
    def setup(self, kernel) -> None:
        names = {task.name for task in kernel.taskset}
        unknown = sorted(set(self.constraints) - names)
        if unknown:
            raise ConfigurationError(
                f"jcl constraints name unknown tasks: {unknown}; "
                f"task set has {sorted(names)}"
            )
        self._thresholds = {
            name: constraint.demotion_threshold()
            for name, constraint in self.constraints.items()
        }
        self._streaks = {task.name: 0 for task in kernel.taskset}
        self._keys.clear()
        self._inflight.clear()

    def schedule(self, kernel, event: SchedEvent) -> Decision:
        """Settle finished jobs' classes, then dispatch by class priority."""
        self._settle(kernel, event)
        return Decision(run=self._dispatch(kernel))

    # ------------------------------------------------------------------ #
    # Job-class machinery                                                 #
    # ------------------------------------------------------------------ #
    def _key(self, job: Job) -> float:
        """Run-queue key: the job's class priority, fixed at first push."""
        identity = (job.task.name, job.index)
        key = self._keys.get(identity)
        if key is None:
            threshold = self._thresholds.get(job.task.name)
            demoted = (
                threshold is not None
                and self._streaks.get(job.task.name, 0) >= threshold
            )
            key = float((_TIER_SPAN if demoted else 0) + job.priority)
            self._keys[identity] = key
            self._inflight[identity] = job
        return key

    def _settle(self, kernel, event: SchedEvent) -> None:
        """Classify finished in-flight jobs and advance the streaks."""
        if not self._inflight:
            return
        finished = []
        for identity, job in self._inflight.items():
            if job.completed:
                hit = job.completion_time <= job.absolute_deadline + _TIME_EPS
                finished.append((identity, job, hit))
        if event is SchedEvent.ABORT:
            # The engine already detached the aborted job: it is neither
            # active nor queued, yet never completed — a definite miss.
            active = kernel.active_job
            queued = {id(queued_job) for queued_job in kernel.run_queue.jobs()}
            for identity, job in self._inflight.items():
                if (
                    not job.completed
                    and job is not active
                    and id(job) not in queued
                ):
                    finished.append((identity, job, False))
        if not finished:
            return
        finished.sort(key=lambda item: item[0])
        for identity, job, hit in finished:
            del self._inflight[identity]
            self._keys.pop(identity, None)
            name = job.task.name
            if not hit:
                self._streaks[name] = 0
                continue
            threshold = self._thresholds.get(name)
            cap = 1 if threshold is None else max(threshold, 1)
            streak = self._streaks.get(name, 0) + 1
            self._streaks[name] = min(streak, cap)

    def _dispatch(self, kernel) -> Optional[Job]:
        """L5-L11 dispatch comparing job-class keys, not task priorities."""
        if (
            kernel._push_epoch != kernel._moved_epoch
            or kernel.now != kernel._moved_at
        ):
            kernel.move_due_releases()
        active = kernel.active_job
        heap = kernel.run_queue._heap
        if not heap:
            return active
        head_key = heap[0][0]
        if active is not None:
            if head_key < self._key(active):
                active.preemptions += 1
                kernel.count_preemption()
                kernel.run_queue.push(active)
                active = kernel.run_queue.pop()
        else:
            active = kernel.run_queue.pop()
        return active
