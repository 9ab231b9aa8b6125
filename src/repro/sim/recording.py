"""Recording component: trace capture behind a swappable recorder.

The kernel reports everything observable about a run — contiguous
processor-state segments and zero-duration point events — to a
*recorder*.  Two implementations cover the two regimes the simulator
runs in:

* :class:`TraceBackedRecorder` materialises a full
  :class:`~repro.sim.trace.TraceRecorder` (segments + events), feeding
  the Gantt charts, :func:`~repro.sim.validate.validate_trace`, and the
  energy audit.  This is what ``record_trace=True`` installs.
* :class:`NullRecorder` drops everything at near-zero cost — the right
  choice for large campaign sweeps where only the
  :class:`~repro.sim.metrics.SimulationResult` aggregates matter.

The kernel checks :attr:`Recorder.enabled` before formatting event
details, so a disabled recorder costs one attribute read per potential
record — no f-strings, no :class:`~repro.sim.trace.Segment` allocation.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional

from .trace import Segment, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (metrics ← recording)
    from .metrics import SimulationResult


class Recorder:
    """Recorder protocol; the base class is the no-op implementation.

    Attributes
    ----------
    enabled:
        False when recording is a no-op.  Hot paths consult this before
        building record arguments; implementations must keep it in sync
        with their behaviour.
    trace:
        The underlying :class:`~repro.sim.trace.TraceRecorder`, or
        ``None`` when the recorder keeps no trace.  This is what lands
        in :attr:`~repro.sim.metrics.SimulationResult.trace`.
    """

    enabled: bool = False
    trace: Optional[TraceRecorder] = None

    def segment(
        self,
        start: float,
        end: float,
        state: str,
        job: Optional[str],
        task: Optional[str],
        speed_start: float,
        speed_end: float,
    ) -> None:
        """Record one span of processor activity."""

    def event(self, time: float, kind: str, detail: str) -> None:
        """Record one zero-duration point event."""


class NullRecorder(Recorder):
    """Drop all records — the cheap recorder for campaign sweeps."""

    __slots__ = ()


class TraceBackedRecorder(Recorder):
    """Materialise the full segment/event trace."""

    __slots__ = ("trace",)

    enabled = True

    def __init__(self) -> None:
        self.trace = TraceRecorder()

    def segment(
        self,
        start: float,
        end: float,
        state: str,
        job: Optional[str],
        task: Optional[str],
        speed_start: float,
        speed_end: float,
    ) -> None:
        """Append a :class:`~repro.sim.trace.Segment` to the trace."""
        self.trace.record_segment(
            Segment(
                start=start,
                end=end,
                state=state,
                job=job,
                task=task,
                speed_start=speed_start,
                speed_end=speed_end,
            )
        )

    def event(self, time: float, kind: str, detail: str) -> None:
        """Append a point event to the trace."""
        self.trace.record_event(time, kind, detail)


#: Shared stateless no-op recorder instance.
NULL_RECORDER = NullRecorder()


def trace_sha256(trace: TraceRecorder) -> str:
    """SHA-256 over the canonical rendering of a full trace.

    Floats are rendered with ``repr`` — the shortest round-trip form — so
    the hash is bit-exact: any refactor that perturbs a single float or
    reorders one event changes the digest.  This is the fingerprint the
    golden-trace fixtures (``tests/golden/``) and the service result
    cache both pin bit-identity with.
    """
    lines: List[str] = []
    for seg in trace.segments:
        lines.append(
            "S|%s|%s|%s|%s|%s|%s|%s"
            % (
                repr(seg.start),
                repr(seg.end),
                seg.state,
                seg.job,
                seg.task,
                repr(seg.speed_start),
                repr(seg.speed_end),
            )
        )
    for event in trace.events:
        lines.append("E|%s|%s|%s" % (repr(event.time), event.kind, event.detail))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def digest_result(result: "SimulationResult") -> Dict[str, object]:
    """Canonical, bit-exact digest of one *traced* simulation result.

    The digest pins everything observable about the run: the trace hash,
    every energy bucket as ``repr`` strings, and the scalar counters.
    Requires ``record_trace=True`` — digesting an untraced result would
    silently pin less than the golden fixtures do.
    """
    trace = result.trace
    if not isinstance(trace, TraceRecorder):
        raise ValueError("digest_result needs a traced result (record_trace=True)")
    return {
        "trace_sha256": trace_sha256(trace),
        "segments": len(trace.segments),
        "events": len(trace.events),
        "energy": {k: repr(v) for k, v in result.energy.as_dict().items()},
        "energy_total": repr(result.energy.total),
        "jobs_completed": result.jobs_completed,
        "deadline_misses": len(result.deadline_misses),
        "context_switches": result.context_switches,
        "preemptions": result.preemptions,
        "speed_changes": result.speed_changes,
        "sleep_entries": result.sleep_entries,
    }

