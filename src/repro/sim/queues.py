"""Run queue and delay queue — the kernel model of the paper (§3.1).

"The scheduler maintains two queues, one called run queue and the other
called delay queue.  The run queue holds tasks that are waiting to run and
the tasks in the queue are ordered by priority.  [...]  The delay queue
holds tasks that have already run in their period and are waiting for their
next period to start again.  They are ordered by the time their release is
due."

The run queue's ordering key is pluggable so the same kernel machinery
serves fixed-priority scheduling (order by task priority — the default) and
EDF (order by absolute deadline).  Ties break by insertion order, which
keeps simultaneous releases deterministic and FIFO within a priority.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, List, Optional, Tuple

from ..tasks.job import Job
from ..tasks.task import Task

#: Ordering key for the run queue; smaller sorts first.
RunQueueKey = Callable[[Job], float]


def priority_key(job: Job) -> float:
    """Fixed-priority ordering (paper default): smaller priority value first."""
    return job.priority


def deadline_key(job: Job) -> float:
    """EDF ordering: earlier absolute deadline first."""
    return job.absolute_deadline


class RunQueue:
    """Jobs eligible for execution, ordered by a scheduling key.

    The *active* job is **not** kept in the queue, matching the paper's
    kernel model — preemption pushes it back in.
    """

    def __init__(self, key: RunQueueKey = priority_key):
        self._key = key
        self._heap: List[Tuple[float, int, Job]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def empty(self) -> bool:
        """True when no job is waiting — the gate for LPFPS's hooks (L12)."""
        return not self._heap

    def push(self, job: Job) -> None:
        """Insert *job* by its scheduling key."""
        heapq.heappush(self._heap, (self._key(job), next(self._counter), job))

    def pop(self) -> Job:
        """Remove and return the head (highest urgency) job."""
        if not self._heap:
            raise IndexError("pop from an empty run queue")
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Optional[Job]:
        """The head job without removing it, or ``None`` when empty."""
        return self._heap[0][2] if self._heap else None

    def jobs(self) -> List[Job]:
        """All queued jobs in key order (for traces and tests)."""
        return [job for _, _, job in sorted(self._heap)]

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs())


class DelayQueue:
    """Tasks waiting for their next release, ordered by due time.

    Each entry is ``(release_time, task, job_index)``: when the release
    comes due the kernel instantiates job ``job_index`` of ``task`` and
    moves it to the run queue (paper lines L5–L7).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Task, int, float]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def empty(self) -> bool:
        """True when every task is either active or overdue for release."""
        return not self._heap

    def push(
        self,
        task: Task,
        release_time: float,
        job_index: int,
        nominal: Optional[float] = None,
    ) -> None:
        """Queue *task*'s next instance, due at *release_time*.

        Simultaneous releases order by task priority (falling back to
        insertion order when unprioritised) so the run queue receives them
        in a deterministic order.

        *nominal* is the model's unperturbed release time (defaults to
        *release_time*).  Under injected release jitter the entry fires at
        the perturbed *release_time* but the job keeps the nominal release
        for its deadline, so jitter consumes real slack.
        """
        tiebreak = task.priority if task.priority is not None else 0
        heapq.heappush(
            self._heap,
            (
                release_time,
                tiebreak,
                next(self._counter),
                task,
                job_index,
                nominal if nominal is not None else release_time,
            ),
        )

    def next_release_time(self) -> Optional[float]:
        """Due time of the head entry — the paper's ``t_a`` (or ``None``)."""
        return self._heap[0][0] if self._heap else None

    def pop_due(
        self, now: float, tolerance: float = 1e-9
    ) -> List[Tuple[Task, float, int]]:
        """Remove every entry due at or before *now*.

        Returns ``(task, release_time, job_index)`` tuples in due order —
        the L5–L7 loop of the paper's pseudo-code.  The returned release
        time is the *nominal* one (deadline anchor), which equals the fire
        time except under injected release jitter.
        """
        heap = self._heap
        bound = now + tolerance
        due = []
        while heap and heap[0][0] <= bound:
            _, _, _, task, job_index, nominal = heapq.heappop(heap)
            due.append((task, nominal, job_index))
        return due

    def entries(self) -> List[Tuple[float, str]]:
        """``(release_time, task name)`` pairs in due order, for inspection."""
        return [(entry[0], entry[3].name) for entry in sorted(self._heap)]
