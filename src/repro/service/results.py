"""Query execution and bit-exact result encoding.

Responses are plain JSON-ready dicts.  All floats are carried verbatim:
``json`` serialises Python floats in their shortest round-trip form, so
a payload that travels disk cache → HTTP → client compares equal, bit
for bit, to one computed fresh — the property the golden-equivalence
suite pins.

Failures that are *deterministic properties of the query* — a scheduler
refusing a workload (the YDS oracle on huge hyperperiods), an analysis
that cannot run — are encoded as ``{"ok": false, "error": ...}``
payloads in the same ``TypeName: message`` format the golden fixtures
pin, and are cached like any other answer: asking an impossible question
twice should not cost two refusals.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from ..analysis.rta import analyze
from ..errors import ReproError, ServiceError, error_kind
from ..experiments.runner import CellFailure, run_many
from ..sim.metrics import SimulationResult
from ..sim.recording import digest_result
from .query import Query


class CellError(ServiceError):
    """A query's cell failed for a reason outside the query (HTTP 500).

    A bug, or a worker process that kept dying past its retries: asking
    again may well succeed, so the failure reaches only the waiters of
    that one computation and is never cached.
    """

    kind = "internal"


def encode_result(query: Query, result: SimulationResult) -> Dict[str, Any]:
    """Encode one simulation result as a JSON-ready response payload."""
    payload: Dict[str, Any] = {
        "ok": True,
        "kind": "energy",
        "scheduler": query.scheduler,
        "scheduler_name": result.scheduler,
        "taskset": result.taskset,
        "seed": query.seed,
        "duration": result.duration,
        "average_power": result.average_power,
        "energy": result.energy.as_dict(),
        "energy_total": result.energy.total,
        "counters": {
            "jobs_completed": result.jobs_completed,
            "context_switches": result.context_switches,
            "preemptions": result.preemptions,
            "speed_changes": result.speed_changes,
            "sleep_entries": result.sleep_entries,
        },
        "deadline_misses": len(result.deadline_misses),
        "missed": result.missed,
    }
    if result.trace is not None:
        payload["digest"] = digest_result(result)
    return payload


def error_payload(
    query: Query, error_type: str, message: str, kind: str
) -> Dict[str, Any]:
    """Encode a deterministic refusal in the golden ``error`` format.

    ``error`` reads ``TypeName: message``; ``error_kind`` carries the
    machine-readable taxonomy entry (:data:`repro.errors.ERROR_KINDS`)
    so clients can branch without parsing the human-facing string.
    """
    return {
        "ok": False,
        "kind": query.kind,
        "error": f"{error_type}: {message}",
        "error_kind": kind,
    }


def cell_answer(
    query: Query, outcome: Union[SimulationResult, CellFailure]
) -> Dict[str, Any]:
    """The answer to energy *query* from its cell's contained outcome.

    A result is encoded.  A cell that raised a
    :class:`~repro.errors.ReproError` is a property of the query and
    becomes the cacheable ``ok: false`` payload.  Any other failure
    raises :class:`CellError`.
    """
    if not outcome.failed:
        return encode_result(query, outcome)
    if outcome.repro_error:
        return error_payload(
            query, outcome.error_type, outcome.message, outcome.error_kind
        )
    raise CellError(f"{outcome.error_type}: {outcome.message}")


def execute_analytic(query: Query) -> Dict[str, Any]:
    """Answer a ``schedulability`` or ``rta`` query via exact RTA."""
    try:
        rta = analyze(query.taskset)
    except ReproError as exc:
        return error_payload(query, type(exc).__name__, str(exc), error_kind(exc))
    if query.kind == "schedulability":
        return {
            "ok": True,
            "kind": "schedulability",
            "schedulable": rta.schedulable,
            "utilization": query.taskset.utilization,
            "n_tasks": len(query.taskset),
        }
    return {
        "ok": True,
        "kind": "rta",
        "schedulable": rta.schedulable,
        "response_times": dict(rta.response_times),
        "slack": dict(rta.slack),
        "worst_slack": rta.worst_slack(),
    }


def execute_query(query: Query) -> Dict[str, Any]:
    """Execute one query in-process, bypassing cache and broker.

    This is the reference path: the broker's batched answers must be
    bit-identical to it, and the benchmark's *sequential per-request
    dispatch* baseline is exactly this call in a loop.  An energy query
    runs as a one-cell contained campaign, answered by
    :func:`cell_answer` like a broker batch.
    """
    if query.kind != "energy":
        return execute_analytic(query)
    (outcome,) = run_many([query.to_runspec()], failures="contain")
    return cell_answer(query, outcome)
