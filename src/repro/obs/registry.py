"""The metrics registry: one sink for spans, counters, gauges, histograms.

A :class:`Registry` is the unit of collection: the kernel profiles into
one per run, ``run_many`` gauges the active one, and the service owns a
long-lived one shared by every broker thread.  Updates are serialised by
a single lock (uncontended in the single-threaded kernel, exact under
the service's thread pool); span *nesting* state is kept per thread, so
concurrent spans on different threads never corrupt each other's stacks.

Two usage idioms:

* **Structured** — ``with registry.span("broker.dispatch"): ...`` for
  millisecond-scale stages where two clock reads are free.
* **Batched** — hot loops (the simulation kernel) accumulate phase
  times locally and flush once via :meth:`Registry.span_add`; the
  registry only sees one update per run, keeping instrumented-loop
  overhead measurable in fractions of a percent.

The active registry is installed *thread-locally* via :func:`install` /
:func:`installed`; :func:`current` returns the installed registry or the
shared :data:`DISABLED` singleton, so library code can emit metrics
unconditionally and pay one attribute read when nobody is listening.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..errors import ConfigurationError
from .instruments import DEFAULT_EDGES, Counter, Gauge, Histogram, SpanStat
from .schema import bench_metrics_payload


class Registry:
    """A thread-safe collection of named instruments.

    Parameters
    ----------
    enabled:
        When False every mutator is a cheap no-op; the shared
        :data:`DISABLED` instance is how un-instrumented runs pay
        (almost) nothing.
    sample:
        Span sampling period hint for hot-loop consumers (the kernel
        times one in every *sample* loop iterations and scales the
        recorded time back up).  ``1`` measures every iteration —
        exact, what ``lpfps profile`` uses; the default of
        :data:`DEFAULT_SAMPLE` keeps span timing cheap.  Kernel counters
        are not sampled: they are exact at any period (DESIGN.md §5d).
    """

    def __init__(self, enabled: bool = True, sample: int = 0) -> None:
        if sample < 0:
            raise ConfigurationError(f"sample must be >= 0, got {sample}")
        self.enabled = enabled
        self.sample = sample if sample else DEFAULT_SAMPLE
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStat] = {}
        self._stacks = threading.local()
        self.started_at = time.monotonic()

    # -- mutators ------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Bump counter *name* by *amount* (exact under concurrency)."""
        if not self.enabled:
            return
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.inc(amount)

    def gauge(self, name: str, value: float, units: str = "") -> None:
        """Set gauge *name* to *value* (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name, units)
            gauge.set(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: Sequence[float] = DEFAULT_EDGES,
        units: str = "s",
    ) -> None:
        """Fold *value* into histogram *name* (edges fixed at creation)."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, edges, units)
            histogram.observe(value)

    def span_add(
        self,
        name: str,
        total_s: float,
        count: int = 1,
        self_s: Optional[float] = None,
    ) -> None:
        """Fold pre-aggregated span time in — the hot-loop flush path."""
        if not self.enabled:
            return
        with self._lock:
            stat = self._spans.get(name)
            if stat is None:
                stat = self._spans[name] = SpanStat(name)
            stat.add(total_s, total_s if self_s is None else self_s, count)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one structured span; nesting is tracked per thread.

        A nested span's time is excluded from its parent's ``self_s``,
        so sibling spans tile their enclosing span exactly.
        """
        if not self.enabled:
            yield
            return
        stack = getattr(self._stacks, "frames", None)
        if stack is None:
            stack = self._stacks.frames = []
        frame = [name, 0.0]  # child-time accumulator
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            self.span_add(name, dt, self_s=dt - frame[1])

    # -- readers -------------------------------------------------------------
    def counter_value(self, name: str) -> int:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def gauge_value(self, name: str) -> float:
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge is not None else 0.0

    def span_stat(self, name: str) -> Optional[SpanStat]:
        with self._lock:
            return self._spans.get(name)

    def span_names(self) -> List[str]:
        with self._lock:
            return sorted(self._spans)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A consistent plain-dict copy of every instrument."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {
                    n: {
                        "count": h.count,
                        "total": h.total,
                        "mean": h.mean,
                        "edges": list(h.edges),
                        "buckets": list(h.buckets),
                    }
                    for n, h in self._histograms.items()
                },
                "spans": {
                    n: {
                        "count": s.count,
                        "total_s": s.total_s,
                        "self_s": s.self_s,
                        "max_s": s.max_s,
                    }
                    for n, s in self._spans.items()
                },
            }

    def metrics_list(self) -> List[Dict[str, Any]]:
        """Every instrument flattened to bench-metrics/v1 metric entries."""
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
                + list(self._spans.values())
            )
        metrics: List[Dict[str, Any]] = []
        for instrument in sorted(instruments, key=lambda i: i.name):
            metrics.extend(instrument.metrics())
        return metrics

    def to_bench_metrics(
        self, benchmark: str = "obs", test: str = "obs"
    ) -> Dict[str, Any]:
        """The whole registry as one bench-metrics/v1 payload."""
        return bench_metrics_payload(benchmark, {test: self.test_record()})

    def test_record(self) -> Dict[str, Any]:
        """One ``tests`` entry — mergeable into a larger payload."""
        return {
            "wall_time_s": round(time.monotonic() - self.started_at, 6),
            "metrics": self.metrics_list(),
        }


#: Default span sampling period for always-on collection (see DESIGN.md
#: §5d: one timed kernel iteration in 64 keeps span timing under 2% —
#: measured well under 1% on the CNC hot-loop benchmark; the exact
#: kernel counters come on top).
DEFAULT_SAMPLE = 64

#: Shared always-off registry: safe to emit into from anywhere, drops
#: everything at the cost of one ``enabled`` check.
DISABLED = Registry(enabled=False)

_INSTALLED = threading.local()


def install(registry: Optional[Registry]) -> None:
    """Install *registry* as this thread's ambient metrics sink."""
    _INSTALLED.registry = registry


def current() -> Registry:
    """This thread's installed registry, or :data:`DISABLED`."""
    registry = getattr(_INSTALLED, "registry", None)
    return registry if registry is not None else DISABLED


@contextlib.contextmanager
def installed(registry: Registry) -> Iterator[Registry]:
    """Install *registry* for the duration of the block."""
    previous = getattr(_INSTALLED, "registry", None)
    _INSTALLED.registry = registry
    try:
        yield registry
    finally:
        _INSTALLED.registry = previous
