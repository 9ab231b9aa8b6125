"""Layer spans: timing shims around the program's public calls, and the
arithmetic that turns recorded spans into per-layer metrics.

The shims are installed only in a process started through ``launch.py``
with ``--trace``; they call straight through, so answers are unchanged.
Each call records ``(id, name, start, end, thread, parent, key, info)``:
*parent* is the enclosing span on the same thread, *key* the request
fingerprint or campaign id where the call has one.  Spans stay in memory
and are written out once, when the process exits.

Clocks: spans and the ledger's client timestamps both use
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes on one machine; the coverage metric relies
on that.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def _arg(i: int) -> Callable[[tuple, dict, Any], Any]:
    return lambda args, kwargs, result: args[i] if len(args) > i else None


def _result(args: tuple, kwargs: dict, result: Any) -> Any:
    return result


def _runner_info(args: tuple, kwargs: dict, results: Any) -> Dict[str, Any]:
    """Kernel work a ``run_many`` call reports in its result metadata.

    Pool workers' own spans never reach this process, so kernel time is
    read from ``cell_wall_s``; journal restores (``checkpoint == "hit"``)
    did no kernel work here and are left out.
    """
    info = {"cells": len(results), "workers": 1, "busy_s": 0.0,
            "sim_us": 0.0, "jobs": 0, "simulated": 0}
    for result in results:
        metadata = result.metadata
        info["workers"] = int(metadata.get("workers", 1))
        if metadata.get("checkpoint") == "hit" or not hasattr(result, "jobs_completed"):
            continue
        info["simulated"] += 1
        info["busy_s"] += float(metadata.get("cell_wall_s", 0.0))
        info["sim_us"] += float(result.duration)
        info["jobs"] += int(result.jobs_completed)
    return info


#: (module, attribute, span name, key extractor, info extractor).  Each
#: name is patched where the caller looks it up, so ``run_many`` appears
#: once per importing module.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.service.server", "ScheduleService.query_dict",
     "service.server.query_dict", None, None),
    ("repro.service.server", "ScheduleService.submit_scenario",
     "service.server.submit_scenario",
     lambda a, k, r: r.get("campaign_id"), None),
    ("repro.service.server", "parse_query", "service.query.parse_query", None, None),
    ("repro.service.broker", "fingerprint",
     "service.fingerprint.fingerprint", _result, None),
    ("repro.service.broker", "Broker.query", "service.broker.query", None, None),
    ("repro.service.broker", "Broker.submit", "service.broker.submit",
     lambda a, k, r: r.fingerprint, lambda a, k, r: {"path": r.path}),
    ("repro.service.cache", "ResultCache.get", "service.cache.get", _arg(1), None),
    ("repro.service.cache", "ResultCache.get_with_tier",
     "service.cache.get_with_tier", _arg(1), lambda a, k, r: {"tier": r[1]}),
    ("repro.service.cache", "ResultCache.put", "service.cache.put", _arg(1), None),
    ("repro.service.broker", "encode_result",
     "service.results.encode_result", None, None),
    ("repro.service.broker", "run_many",
     "experiments.runner.run_many", None, _runner_info),
    ("repro.experiments.runner", "run_many",
     "experiments.runner.run_many", None, _runner_info),
    ("repro.scenarios.runner", "run_many",
     "experiments.runner.run_many", None, _runner_info),
    ("repro.experiments.checkpoint", "CheckpointJournal.record",
     "experiments.checkpoint.record", _arg(1), None),
    ("repro.experiments.checkpoint", "CheckpointJournal.load",
     "experiments.checkpoint.load", None, None),
    ("repro.service.durability", "CampaignStore.append_event",
     "service.durability.append_event", _arg(1), None),
    ("repro.service.durability", "CampaignStore.write_manifest",
     "service.durability.write_manifest", _arg(1), None),
    ("repro.service.durability", "CampaignStore.scrub",
     "service.durability.scrub", None, None),
    ("repro.service.durability", "CampaignStore.gc",
     "service.durability.gc", None, None),
    ("repro.service.stream", "CampaignHub.publish",
     "service.stream.publish", _arg(1), None),
    ("repro.service.stream", "CampaignHub.load_persisted",
     "service.stream.load_persisted", None, None),
    ("repro.scenarios", "parse_scenario",
     "scenarios.schema.parse_scenario", None, None),
    ("repro.scenarios.runner", "run_scenario",
     "scenarios.runner.run_scenario", None, None),
    ("repro.experiments.figure8", "run_figure8",
     "experiments.figure8.run_figure8", None, None),
)


@dataclass
class Span:
    """One recorded call."""

    id: int
    name: str
    start: float
    end: float
    thread: int = 0
    parent: int = -1
    key: Optional[str] = None
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, key_of=None, info_of=None) -> Callable:
        """A shim that times *fn* and calls straight through."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            info: Dict[str, Any] = {}
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                key = None
                if "error" not in info:
                    # Extractors only read what the call returned; one
                    # that fails must not change the program's answer.
                    try:
                        key = key_of(args, kwargs, result) if key_of else None
                        if info_of is not None:
                            info.update(info_of(args, kwargs, result))
                    except Exception as exc:  # noqa: BLE001
                        info["extract_error"] = repr(exc)
                self.spans.append(Span(
                    span_id, name, start, end, threading.get_ident(),
                    parent, key, info,
                ))

        return shim

    def install(self, targets=TARGETS) -> None:
        """Patch every target; names missing from this tree are skipped.

        Every module is imported before anything is patched: a module
        imported later would bind an already-patched name and be wrapped
        twice.
        """
        found = []
        for module_name, attribute, name, key_of, info_of in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                found.append((owner, leaf, getattr(owner, leaf), name, key_of, info_of))
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attribute}")
                print(f"ledger trace: no {module_name}.{attribute}; "
                      "its layer reads 0", file=sys.stderr)
        for owner, leaf, original, name, key_of, info_of in found:
            setattr(owner, leaf, self.wrap(name, original, key_of, info_of))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "missing": self.missing,
                "spans": [[s.id, s.name, s.start, s.end, s.thread, s.parent,
                           s.key, s.info] for s in self.spans],
            }, handle)


def load_spans(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)["spans"]]


# -- arithmetic ----------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of *intervals*."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        lo, hi = max(span.start, parent.start), min(span.end, parent.end)
        if lo < hi:
            children.setdefault(parent.id, []).append((lo, hi))
    return {
        s.id: s.duration - union_length(children.get(s.id, ()))
        for s in spans
    }


def coverage(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the time a user waited (union of *windows*) during which
    at least one layer span was active."""
    waited = union_length(windows)
    if waited <= 0.0:
        return 0.0
    merged: List[List[float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [start for start, _ in merged]
    clipped = []
    for span in spans:
        i = max(0, bisect.bisect_right(starts, span.start) - 1)
        while i < len(merged) and merged[i][0] < span.end:
            lo, hi = max(span.start, merged[i][0]), min(span.end, merged[i][1])
            if lo < hi:
                clipped.append((lo, hi))
            i += 1
    return union_length(clipped) / waited


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


@dataclass
class ProcessTrace:
    """The spans of one traced program process and its role in the run."""

    role: str  # "serve", "restart" or "campaign"
    spans: List[Span]


def layer_metrics(
    traces: Sequence[ProcessTrace],
    windows: Sequence[Tuple[float, float]],
    since: float,
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except the ``ledger.*``
    ones the load generator measures itself.

    *windows* are the user operations' (sent, done) intervals, measured
    by the ledger; spans that start before *since* (set-up, warm-up) are
    left out, except for the start-up layers (scrub, gc, replay of
    persisted campaigns).  Layers the workload never touched read 0.
    """
    # Span ids restart at 0 in every process, so a span is keyed by
    # (trace index, id) wherever spans of several traces meet.
    by_name: Dict[str, List[Tuple[int, Span]]] = {}
    for k, trace in enumerate(traces):
        for span in trace.spans:
            if span.start >= since:
                by_name.setdefault(span.name, []).append((k, span))

    def named(name: str) -> List[Span]:
        return [span for _, span in by_name.get(name, [])]

    def mean_dur(name: str, scale: float) -> float:
        return _mean([s.duration * scale for s in named(name)])

    own = {(k, span_id): time
           for k, trace in enumerate(traces)
           for span_id, time in self_times(trace.spans).items()}

    def self_s(name: str) -> float:
        return sum(own[(k, s.id)] for k, s in by_name.get(name, []))

    # Start-up layers are read from the restarts when the workload has
    # them: that is where they scan state a previous process left.
    startup = [t for t in traces if t.role == "restart"] or list(traces)

    def startup_ms(name: str) -> float:
        return _mean([s.duration * 1e3 for t in startup for s in t.spans
                      if s.name == name])

    queries = named("service.server.query_dict")
    submits = named("service.broker.submit")
    paths = [s.info.get("path") for s in submits]
    query_by_id = {(k, s.id): s for k, s in by_name.get("service.broker.query", [])}
    waits = [
        (query_by_id[(k, s.parent)].duration - s.duration) * 1e3
        for k, s in by_name.get("service.broker.submit", [])
        if s.info.get("path") == "miss" and (k, s.parent) in query_by_id
    ]
    tiers = [s.info.get("tier") for s in named("service.cache.get_with_tier")]
    runs = named("experiments.runner.run_many")
    cells = sum(s.info.get("cells", 0) for s in runs)
    busy = sum(s.info.get("busy_s", 0.0) for s in runs)
    run_wall = sum(s.duration for s in runs)
    capacity = sum(s.duration * s.info.get("workers", 1) for s in runs)
    misses = paths.count("miss")
    dedups = paths.count("dedup")
    http_self = 0.0
    if queries and windows:
        http_self = (_mean([done - sent for sent, done in windows])
                     - _mean([s.duration for s in queries])) * 1e3
    return {
        "service.server.requests": float(
            len(queries) + len(named("service.server.submit_scenario"))),
        "service.server.http_self_ms": http_self,
        "service.query.calls": float(len(named("service.query.parse_query"))),
        "service.query.busy_us_mean": mean_dur("service.query.parse_query", 1e6),
        "service.fingerprint.calls": float(
            len(named("service.fingerprint.fingerprint"))),
        "service.fingerprint.busy_us_mean": mean_dur(
            "service.fingerprint.fingerprint", 1e6),
        "service.cache.get_us_mean": mean_dur("service.cache.get", 1e6),
        "service.cache.mem_hit_ratio": (
            tiers.count("memory") / len(tiers) if tiers else 0.0),
        "service.cache.disk_hit_ratio": (
            tiers.count("disk") / len(tiers) if tiers else 0.0),
        "service.cache.put_ms_mean": mean_dur("service.cache.put", 1e3),
        "service.broker.submit_us_mean": mean_dur("service.broker.submit", 1e6),
        "service.broker.wait_ms_mean": _mean(waits),
        "service.broker.dedup_ratio": (
            dedups / (dedups + misses) if dedups + misses else 0.0),
        "service.broker.shed": float(sum(
            1 for s in submits if s.info.get("error") == "AdmissionError")),
        "experiments.runner.calls": float(len(runs)),
        "experiments.runner.cells_per_call": cells / len(runs) if runs else 0.0,
        "experiments.runner.pool_calls": float(
            sum(1 for s in runs if s.info.get("workers", 1) > 1)),
        "experiments.runner.wall_s": run_wall,
        "experiments.runner.overhead_s": sum(
            s.duration - s.info.get("busy_s", 0.0) / max(1, s.info.get("workers", 1))
            for s in runs),
        "experiments.runner.worker_utilization": busy / capacity if capacity else 0.0,
        "sim.engine.cells": float(sum(s.info.get("simulated", 0) for s in runs)),
        "sim.engine.busy_s": busy,
        "sim.engine.sim_us_per_wall_s": (
            sum(s.info.get("sim_us", 0.0) for s in runs) / busy if busy else 0.0),
        "sim.engine.jobs_per_wall_s": (
            sum(s.info.get("jobs", 0) for s in runs) / busy if busy else 0.0),
        "service.results.calls": float(len(named("service.results.encode_result"))),
        "service.results.busy_us_mean": mean_dur(
            "service.results.encode_result", 1e6),
        "experiments.checkpoint.records": float(
            len(named("experiments.checkpoint.record"))),
        "experiments.checkpoint.record_ms_mean": mean_dur(
            "experiments.checkpoint.record", 1e3),
        "experiments.checkpoint.busy_s": sum(
            s.duration for s in named("experiments.checkpoint.record")),
        "experiments.checkpoint.load_ms": mean_dur("experiments.checkpoint.load", 1e3),
        "service.durability.appends": float(
            len(named("service.durability.append_event"))),
        "service.durability.append_ms_mean": mean_dur(
            "service.durability.append_event", 1e3),
        "service.durability.manifest_ms_mean": mean_dur(
            "service.durability.write_manifest", 1e3),
        "service.durability.scrub_ms": startup_ms("service.durability.scrub"),
        "service.durability.gc_ms": startup_ms("service.durability.gc"),
        "service.stream.publishes": float(len(named("service.stream.publish"))),
        "service.stream.publish_ms_mean": mean_dur("service.stream.publish", 1e3),
        "service.stream.load_persisted_ms": startup_ms(
            "service.stream.load_persisted"),
        "scenarios.schema.parse_ms_mean": mean_dur(
            "scenarios.schema.parse_scenario", 1e3),
        "scenarios.runner.campaigns": float(
            len(named("scenarios.runner.run_scenario"))),
        "scenarios.runner.self_s": self_s("scenarios.runner.run_scenario"),
        "experiments.figure8.self_s": self_s("experiments.figure8.run_figure8"),
        "ledger.coverage_pct": 100.0 * coverage(
            [s for t in traces if t.role != "restart" for s in t.spans
             if s.start >= since], windows),
    }
