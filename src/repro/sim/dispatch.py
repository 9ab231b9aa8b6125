"""Scheduler interface and the shared fixed-priority dispatch core.

A scheduler is invoked by the engine at every scheduling point with the
kernel view and the event kind, and returns a
:class:`~repro.sim.events.Decision`.  The fixed-priority dispatch logic
(paper lines L5–L11) is shared by every FP-based policy via
:func:`fixed_priority_dispatch`; EDF-style policies reuse the same shape
through :func:`earliest_deadline_dispatch`.
"""

from __future__ import annotations

import abc
from typing import Optional

from .events import Decision, SchedEvent
from .profile import TIME_EPS
from .queues import RunQueueKey, priority_key
from ..tasks.job import Job


class Scheduler(abc.ABC):
    """Base class for all scheduling policies — *the* scheduler contract.

    The kernel talks to a policy through exactly this surface; there is no
    duck typing.  Every attribute below is read directly (no ``getattr``
    fallbacks), so policies that need a non-default value must set it as a
    class attribute:

    * :attr:`name` — identifies the policy in results and reports;
    * :attr:`run_queue_key` — total order of the ready queue;
    * :attr:`requires_priorities` — whether the task set must carry
      fixed priorities (``False`` lets the kernel synthesise stable
      tie-breaking keys);
    * :attr:`tick_interval` — optional periodic ``TICK`` scheduling
      points, for interval/polling policies;
    * :attr:`ramp_done_is_noop` — whether a ``RAMP_DONE`` pass would
      change nothing right now, so the kernel may skip it;
    * :meth:`setup` — one-time pre-run hook (default: no-op);
    * :meth:`schedule` — the scheduling-point handler (mandatory).
    """

    #: Human-readable policy name for reports.
    name: str = "scheduler"
    #: Ordering of the run queue; FP by default.
    run_queue_key: RunQueueKey = staticmethod(priority_key)
    #: Whether the task set must carry fixed priorities.
    requires_priorities: bool = True
    #: Period (µs) of engine-generated ``TICK`` events; ``None`` = no ticks.
    tick_interval: Optional[float] = None
    #: ``True`` while this policy would answer ``RAMP_DONE`` with
    #: :data:`~repro.sim.events.NO_CHANGE` and no other effect beyond
    #: moving due releases.  The kernel then skips that pass, but only
    #: when no release is due, no deferred sleep is pending, and the pass
    #: is free (no ``scheduler_overhead``, no injecting fault layer), so
    #: skipping is indistinguishable from running it.  A policy whose
    #: answer depends on its own state keeps this attribute current as
    #: that state changes.
    ramp_done_is_noop: bool = False

    def setup(self, kernel) -> None:
        """Called once before the simulation starts (optional hook)."""

    @abc.abstractmethod
    def schedule(self, kernel, event: SchedEvent) -> Decision:
        """Answer one scheduling point."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def fixed_priority_dispatch(kernel) -> Optional[Job]:
    """Lines L5–L11 of the paper: move due releases, then dispatch.

    Moves every due task from the delay queue to the run queue (the
    ``move_due_releases`` call is skipped when nothing is due), preempts
    the active job if the run-queue head has higher priority (pushing the
    active job back), and fills an empty processor from the queue head.
    Returns the job that should be active (or ``None``).
    """
    heap = kernel.delay_queue._heap
    if heap and heap[0][0] <= kernel.now + TIME_EPS:
        kernel.move_due_releases()
    active = kernel.active_job
    queue = kernel.run_queue._heap
    head = queue[0][2] if queue else None
    if active is not None and head is not None and head.priority < active.priority:
        active.preemptions += 1
        kernel.count_preemption()
        kernel.run_queue.push(active)
        active = kernel.run_queue.pop()
    elif active is None and head is not None:
        active = kernel.run_queue.pop()
    return active


def earliest_deadline_dispatch(kernel) -> Optional[Job]:
    """EDF variant of :func:`fixed_priority_dispatch`.

    Identical queue mechanics with the comparison on absolute deadlines;
    requires the run queue to be ordered by :func:`deadline_key`.
    """
    heap = kernel.delay_queue._heap
    if heap and heap[0][0] <= kernel.now + TIME_EPS:
        kernel.move_due_releases()
    active = kernel.active_job
    queue = kernel.run_queue._heap
    head = queue[0][2] if queue else None
    if (
        active is not None
        and head is not None
        and head.absolute_deadline < active.absolute_deadline - 1e-12
    ):
        active.preemptions += 1
        kernel.count_preemption()
        kernel.run_queue.push(active)
        active = kernel.run_queue.pop()
    elif active is None and head is not None:
        active = kernel.run_queue.pop()
    return active
