"""Periodic task and task-set model.

This module implements the classic periodic task model used by the paper
(Liu & Layland tasks extended with deadlines and best-case execution times):

* a :class:`Task` releases an instance (a *job*, see :mod:`repro.tasks.job`)
  every ``period`` µs starting at ``phase``;
* each job needs at most ``wcet`` and at least ``bcet`` full-speed µs of
  processor time and must finish within ``deadline`` µs of its release;
* a fixed integer ``priority`` orders tasks, and — following the convention
  the paper adopts — **a numerically smaller value means a higher priority**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidTaskError, InvalidTaskSetError


@dataclass(frozen=True)
class Task:
    """One periodic task.

    Parameters
    ----------
    name:
        Unique identifier within a :class:`TaskSet` (e.g. ``"tau1"``).
    wcet:
        Worst-case execution time in full-speed µs.  Must be positive.
    period:
        Inter-release time in µs.  Must be positive.
    deadline:
        Relative deadline in µs; defaults to the period (implicit deadlines,
        the configuration used throughout the paper).
    bcet:
        Best-case execution time in full-speed µs; defaults to the WCET
        (i.e. no execution-time variation).
    phase:
        Release offset of the first job, in µs (0 in the paper).
    priority:
        Fixed priority; smaller is more urgent.  ``None`` until a priority
        assignment policy (:mod:`repro.tasks.priority`) fills it in.
    """

    name: str
    wcet: float
    period: float
    deadline: Optional[float] = None
    bcet: Optional[float] = None
    phase: float = 0.0
    priority: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTaskError("task name must be a non-empty string")
        if self.wcet <= 0:
            raise InvalidTaskError(f"{self.name}: wcet must be > 0, got {self.wcet}")
        if self.period <= 0:
            raise InvalidTaskError(
                f"{self.name}: period must be > 0, got {self.period}"
            )
        if self.deadline is None:
            object.__setattr__(self, "deadline", float(self.period))
        if self.bcet is None:
            object.__setattr__(self, "bcet", float(self.wcet))
        if self.deadline <= 0:
            raise InvalidTaskError(
                f"{self.name}: deadline must be > 0, got {self.deadline}"
            )
        if self.deadline > self.period:
            raise InvalidTaskError(
                f"{self.name}: constrained-deadline model requires "
                f"deadline <= period ({self.deadline} > {self.period})"
            )
        if not 0 < self.bcet <= self.wcet:
            raise InvalidTaskError(
                f"{self.name}: bcet must satisfy 0 < bcet <= wcet "
                f"(bcet={self.bcet}, wcet={self.wcet})"
            )
        if self.wcet > self.deadline:
            raise InvalidTaskError(
                f"{self.name}: wcet {self.wcet} exceeds deadline {self.deadline}; "
                "the task can never meet its deadline"
            )
        if self.phase < 0:
            raise InvalidTaskError(
                f"{self.name}: phase must be >= 0, got {self.phase}"
            )

    @property
    def utilization(self) -> float:
        """Worst-case utilisation ``wcet / period``."""
        return self.wcet / self.period

    @property
    def density(self) -> float:
        """Worst-case density ``wcet / min(deadline, period)``."""
        return self.wcet / min(self.deadline, self.period)

    @property
    def rate(self) -> float:
        """Release rate in jobs per µs (``1 / period``)."""
        return 1.0 / self.period

    def with_priority(self, priority: int) -> "Task":
        """Return a copy of this task with *priority* assigned."""
        return Task(
            self.name, self.wcet, self.period, self.deadline, self.bcet,
            self.phase, priority,
        )

    def with_bcet(self, bcet: float) -> "Task":
        """Return a copy of this task with a new best-case execution time."""
        return Task(
            self.name, self.wcet, self.period, self.deadline, bcet,
            self.phase, self.priority,
        )

    def with_bcet_ratio(self, ratio: float) -> "Task":
        """Return a copy whose BCET is ``ratio * wcet``.

        This is the knob Figure 8 of the paper sweeps from 0.1 to 1.0.
        """
        if not 0 < ratio <= 1:
            raise InvalidTaskError(
                f"{self.name}: bcet ratio must be in (0, 1], got {ratio}"
            )
        return self.with_bcet(ratio * self.wcet)

    def scaled(self, factor: float) -> "Task":
        """Return a copy with WCET and BCET scaled by *factor*.

        Used by breakdown-utilisation search (:mod:`repro.analysis`).
        """
        if factor <= 0:
            raise InvalidTaskError(f"scale factor must be > 0, got {factor}")
        return Task(
            self.name, self.wcet * factor, self.period, self.deadline,
            self.bcet * factor, self.phase, self.priority,
        )

    def release_time(self, index: int) -> float:
        """Absolute release time of the *index*-th job (0-based)."""
        if index < 0:
            raise ValueError(f"job index must be >= 0, got {index}")
        return self.phase + index * self.period

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Task({self.name}: C={self.wcet}, T={self.period}, "
            f"D={self.deadline}, P={self.priority})"
        )


class TaskSet:
    """An immutable collection of :class:`Task` objects.

    The set behaves like a sequence (indexing, iteration, ``len``) and adds
    the aggregate quantities used by the analyses and experiments.
    """

    def __init__(self, tasks: Iterable[Task], name: str = "taskset"):
        self._tasks: Tuple[Task, ...] = tuple(tasks)
        self.name = name
        if not self._tasks:
            raise InvalidTaskSetError("a task set needs at least one task")
        names = [t.name for t in self._tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvalidTaskSetError(f"duplicate task names: {dupes}")

    # -- sequence protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, index) -> Task:
        return self._tasks[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, TaskSet) and self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSet({self.name!r}, {len(self)} tasks, U={self.utilization:.3f})"

    # -- lookups -----------------------------------------------------------
    @property
    def tasks(self) -> Tuple[Task, ...]:
        """The tasks, in construction order."""
        return self._tasks

    def task(self, name: str) -> Task:
        """Return the task called *name* (raises ``KeyError`` if absent)."""
        for t in self._tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    # -- aggregates ----------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Total worst-case utilisation ``sum(C_i / T_i)``."""
        return sum(t.utilization for t in self._tasks)

    @property
    def density(self) -> float:
        """Total worst-case density ``sum(C_i / min(D_i, T_i))``."""
        return sum(t.density for t in self._tasks)

    @property
    def hyperperiod(self) -> float:
        """Least common multiple of the periods.

        Periods are interpreted as integers when they are whole numbers
        (all paper workloads are), otherwise an LCM over the rational
        representations is computed.
        """
        return _float_lcm([t.period for t in self._tasks])

    @property
    def wcet_range(self) -> Tuple[float, float]:
        """``(min WCET, max WCET)`` — the columns of the paper's Table 2."""
        wcets = [t.wcet for t in self._tasks]
        return (min(wcets), max(wcets))

    @property
    def has_priorities(self) -> bool:
        """True when every task carries a priority."""
        return all(t.priority is not None for t in self._tasks)

    def assert_priorities(self) -> None:
        """Raise :class:`InvalidTaskSetError` unless priorities are assigned
        and unique."""
        if not self.has_priorities:
            missing = [t.name for t in self._tasks if t.priority is None]
            raise InvalidTaskSetError(f"tasks without priority: {missing}")
        prios = [t.priority for t in self._tasks]
        if len(set(prios)) != len(prios):
            raise InvalidTaskSetError("priorities must be unique per task")

    # -- transformations -----------------------------------------------------
    def by_priority(self) -> List[Task]:
        """Tasks sorted from highest priority (smallest value) to lowest."""
        self.assert_priorities()
        return sorted(self._tasks, key=lambda t: t.priority)

    def with_tasks(self, tasks: Sequence[Task]) -> "TaskSet":
        """Return a new set with the same name but different tasks."""
        return TaskSet(tasks, name=self.name)

    def with_bcet_ratio(self, ratio: float) -> "TaskSet":
        """Return a copy where every task's BCET is ``ratio * wcet``."""
        return self.with_tasks([t.with_bcet_ratio(ratio) for t in self._tasks])

    def scaled(self, factor: float) -> "TaskSet":
        """Return a copy with every WCET (and BCET) scaled by *factor*."""
        return self.with_tasks([t.scaled(factor) for t in self._tasks])

    def higher_priority_than(self, task: Task) -> List[Task]:
        """Tasks with strictly higher priority than *task*."""
        self.assert_priorities()
        return [t for t in self._tasks if t.priority < task.priority]


def _float_lcm(values: Sequence[float]) -> float:
    """LCM of positive floats, exact for integer-valued inputs.

    Non-integer periods are scaled to integers via their binary fractions
    (all floats are rationals), which keeps the result exact at the cost of
    potentially large intermediates; paper workloads all use integer µs.
    """
    if any(v <= 0 for v in values):
        raise ValueError("periods must be positive")
    if all(float(v).is_integer() for v in values):
        result = 1
        for v in values:
            result = math.lcm(result, int(v))
        return float(result)
    # Scale by a common power of two until everything is integral.
    scale = 1
    scaled = list(values)
    while not all(float(v).is_integer() for v in scaled) and scale < 2**40:
        scale *= 2
        scaled = [v * scale for v in values]
    if not all(float(v).is_integer() for v in scaled):
        raise ValueError(f"cannot compute an exact LCM of {values}")
    result = 1
    for v in scaled:
        result = math.lcm(result, int(v))
    return result / scale
