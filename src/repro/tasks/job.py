"""Run-time job (task instance) objects.

A :class:`Job` is the mutable record the simulator keeps for one release of a
:class:`~repro.tasks.task.Task`.  The paper calls the executed portion of the
active job ``E_i``; here that is :attr:`Job.executed`, measured in full-speed
µs so that the LPFPS speed formulas (Eqs. 2–3) read exactly as printed:
``r = (C_i - E_i) / (t_a - t_c)``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import InvalidTaskError
from .task import Task

#: Fields compared by ``==`` and shown by ``repr``, in constructor order.
_FIELDS = (
    "task",
    "index",
    "release_time",
    "execution_time",
    "executed",
    "start_time",
    "completion_time",
    "preemptions",
    "faulted",
)


class Job:
    """One instance of a periodic task.

    A hand-written ``__slots__`` record: the kernel builds one per
    release, so construction is a single ``__init__`` on every supported
    Python.  Equality compares the fields (and jobs are unhashable), as
    for a plain dataclass.

    Parameters
    ----------
    task:
        The releasing task.
    index:
        0-based instance number; job ``k`` of task ``i`` releases at
        ``phase_i + k * T_i``.
    release_time:
        Absolute release (arrival) time in µs.
    execution_time:
        The *actual* computation demand of this instance in full-speed µs,
        drawn from an execution-time model; always within
        ``[task.bcet, task.wcet]`` — unless the job carries an injected
        WCET-overrun fault (``faulted=True``), in which case the demand may
        exceed the WCET the schedulability analysis budgeted for.
    faulted:
        True when a fault injector perturbed this job's demand beyond its
        WCET.  The engine's overrun watchdog keys off this flag, and the
        ``[BCET, WCET]`` validation is relaxed for such jobs (that broken
        invariant *is* the fault being modelled).

    Attributes
    ----------
    absolute_deadline:
        Release time plus the task's relative deadline, fixed at
        construction (the release time never changes).
    """

    __slots__ = _FIELDS + ("absolute_deadline",)

    def __init__(
        self,
        task: Task,
        index: int,
        release_time: float,
        execution_time: float,
        executed: float = 0.0,
        start_time: Optional[float] = None,
        completion_time: Optional[float] = None,
        preemptions: int = 0,
        faulted: bool = False,
    ) -> None:
        wcet = task.wcet
        if faulted:
            if execution_time <= 0:
                raise InvalidTaskError(
                    f"{task.name}#{index}: faulted execution time must be > 0, "
                    f"got {execution_time}"
                )
        else:
            bcet = task.bcet
            tol = 1e-9 * (wcet if wcet > 1.0 else 1.0)
            if not (bcet - tol <= execution_time <= wcet + tol):
                raise InvalidTaskError(
                    f"{task.name}#{index}: execution time {execution_time} "
                    f"outside [{bcet}, {wcet}]"
                )
            # Snap tiny float excursions back into range so downstream math
            # can rely on the invariant exactly.
            if execution_time < bcet:
                execution_time = bcet
            elif execution_time > wcet:
                execution_time = wcet
        self.task = task
        self.index = index
        self.release_time = release_time
        self.execution_time = execution_time
        self.executed = executed
        self.start_time = start_time
        self.completion_time = completion_time
        self.preemptions = preemptions
        self.faulted = faulted
        self.absolute_deadline: float = release_time + task.deadline

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in _FIELDS
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"Job({fields})"

    @property
    def name(self) -> str:
        """Human-readable identifier, e.g. ``tau2#3``."""
        return f"{self.task.name}#{self.index}"

    @property
    def priority(self) -> int:
        """The task's fixed priority (smaller = higher)."""
        priority = self.task.priority
        if priority is None:
            raise InvalidTaskError(f"{self.name}: task has no priority assigned")
        return priority

    @property
    def remaining(self) -> float:
        """Actual work still to do, in full-speed µs."""
        return max(0.0, self.execution_time - self.executed)

    @property
    def remaining_wcet(self) -> float:
        """Worst-case work still to do: ``C_i - E_i`` of the paper.

        The scheduler must budget for this (not :attr:`remaining`) because at
        scheduling time it cannot know the actual demand (paper §3.2).
        """
        return max(0.0, self.task.wcet - self.executed)

    @property
    def completed(self) -> bool:
        """True once the actual demand has been fully executed."""
        return self.completion_time is not None

    @property
    def response_time(self) -> Optional[float]:
        """Completion minus release, or ``None`` while running."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.release_time

    @property
    def next_release(self) -> float:
        """Release time of this task's next instance — the delay-queue key."""
        return self.release_time + self.task.period

    def advance(self, work: float) -> None:
        """Account *work* full-speed µs of execution to this job."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        self.executed += work

    def missed_deadline(self, now: float) -> bool:
        """True when the job is past its deadline and still incomplete at *now*."""
        if self.completed:
            return self.completion_time > self.absolute_deadline + 1e-9
        return now > self.absolute_deadline + 1e-9

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job({self.name}: rel={self.release_time}, "
            f"exec={self.execution_time}, done={self.executed:.3f})"
        )
