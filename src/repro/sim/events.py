"""Scheduling events and scheduler decisions.

The engine invokes the installed scheduler at well-defined *scheduling
points* (task release, job completion, end of a speed ramp, wake-up from
power-down, simulation start) and the scheduler answers with a
:class:`Decision`: which job to run, what processor speed to aim for, and
whether to enter the power-down mode instead.

This mirrors the structure of the paper's Figure 4 pseudo-code: the
conventional scheduler body picks the job (L5–L11), and the LPFPS additions
pick a speed (L17–L19) or a sleep interval (L13–L15).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Optional, Union, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..tasks.job import Job


class SchedEvent(enum.Enum):
    """Why the scheduler is being invoked."""

    #: Simulation start: all tasks sit in the delay queue at their phases.
    INIT = "init"
    #: One or more releases are due (timer interrupt in a real kernel).
    RELEASE = "release"
    #: The active job finished its actual execution demand.
    COMPLETION = "completion"
    #: A previously requested speed ramp reached its target.
    RAMP_DONE = "ramp_done"
    #: The processor finished waking up from power-down.
    WAKE = "wake"
    #: Periodic policy tick (only for schedulers declaring
    #: ``tick_interval``; used by interval-based prediction policies).
    TICK = "tick"
    #: The kernel's deadline-miss containment aborted the active job at its
    #: deadline (``miss_policy="abort"``); the scheduler must pick a
    #: successor exactly as after a completion.
    ABORT = "abort"

    # Members are singletons compared by identity, so identity hashing is
    # exact; it keeps the kernel's per-pass obs tally (a dict keyed by
    # event) off ``Enum.__hash__``, which is Python-level.
    __hash__ = object.__hash__


class _KeepActive:
    """Sentinel: the decision leaves the active job untouched.

    A singleton, tested by identity (``run is KEEP``); it pickles and
    copies as a reference to :data:`KEEP`, so identity survives both.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "KEEP"

    def __reduce__(self) -> str:
        return "KEEP"


#: Pass as ``Decision.run`` to keep whatever job is currently active.
KEEP = _KeepActive()

_tuple_new = tuple.__new__


class SleepRequest(
    namedtuple("SleepRequest", ("until", "start_at"), defaults=(None, None))
):
    """Enter power-down mode.

    Parameters
    ----------
    until:
        Absolute time at which the wake-up timer fires (LPFPS programs
        ``next release − wakeup_delay``, paper L14).  ``None`` means "sleep
        until an interrupt", i.e. the conventional power-down whose wake-up
        latency lands on the next released job.
    start_at:
        Absolute time at which to actually enter the mode; the processor
        busy-waits until then.  Models the conventional "power down after a
        predefined idle interval" policy the paper criticises in §2.1.
        ``None`` (default) powers down immediately.
    """

    __slots__ = ()


class Decision(
    namedtuple(
        "Decision", ("run", "speed_target", "sleep", "restore_at", "restore_target")
    )
):
    """A scheduler's answer at a scheduling point.

    An immutable record: a tuple subclass, so the kernel's hottest
    allocation — one ``Decision`` per scheduler pass — is a single
    ``tuple.__new__`` and attribute assignment raises.  Only fields given
    a non-default value are validated.

    Attributes
    ----------
    run:
        The job to execute now: a :class:`~repro.tasks.job.Job`, ``None``
        for "nothing eligible — idle", or :data:`KEEP` (default) to leave
        the currently active job in place.
    speed_target:
        Desired speed ratio in ``(0, 1]``; ``None`` keeps the current
        speed/ramp untouched.  The engine ramps toward the target per the
        processor's transition model.
    sleep:
        Power-down request; only legal when nothing is to run.
    restore_at:
        Absolute time at which the engine should begin ramping toward
        ``restore_target`` *without* a scheduler invocation — the
        pre-arranged up-ramp of the paper's optimal profile (Figure 6(b)),
        timed so the processor reaches full speed exactly at the next
        arrival; also the mid-window level switch of dual-level
        (Ishihara–Yasuura) quantisation.  Cleared by any later decision
        that changes the schedule; preserved across pure no-change
        decisions.
    restore_target:
        Speed ratio the timed change aims for (default 1.0, i.e. a full
        restore).
    """

    __slots__ = ()

    def __new__(
        cls,
        run: Union["Job", None, _KeepActive] = KEEP,
        speed_target: Optional[float] = None,
        sleep: Optional[SleepRequest] = None,
        restore_at: Optional[float] = None,
        restore_target: float = 1.0,
    ) -> "Decision":
        if sleep is not None:
            if run is not None and run is not KEEP:
                raise ValueError("cannot run a job and power down simultaneously")
            if restore_at is not None:
                raise ValueError("cannot arm a speed restore while powering down")
        if speed_target is not None and not 0 < speed_target <= 1 + 1e-12:
            raise ValueError(
                f"speed_target must be in (0, 1], got {speed_target}"
            )
        if restore_target != 1.0 and not 0 < restore_target <= 1 + 1e-12:
            raise ValueError(
                f"restore_target must be in (0, 1], got {restore_target}"
            )
        return _tuple_new(
            cls, (run, speed_target, sleep, restore_at, restore_target)
        )

    @property
    def keeps_active(self) -> bool:
        """True when the decision leaves the active job untouched."""
        return self.run is KEEP


#: Convenience singleton: leave everything untouched.
NO_CHANGE = Decision()
