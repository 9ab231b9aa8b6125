"""Shared experiment machinery: durations, seeded sweeps, the executor.

The power experiments compare schedulers on identical job streams: every
(scheduler, seed) pair draws execution times from the same seeded generator,
so power differences are attributable to the policy alone.

Campaigns are expressed as lists of :class:`RunSpec` cells — one
self-contained, picklable simulation each — executed by :func:`run_many`.
Because every cell carries its own seed and builds its own scheduler and
fault layer, the result list is a pure function of the spec list: running
with ``jobs=4`` worker processes returns exactly what the serial path
returns, in the same order.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, ExecutionError, ReproError, error_kind
from ..faults.layer import FaultLayer
from ..obs.registry import current
from ..power.processor import ProcessorSpec
from ..schedulers.registry import make_scheduler, policy_modules
from ..sim.engine import simulate
from ..sim.metrics import SimulationResult
from ..tasks.generation import ExecutionTimeModel, GaussianModel
from ..tasks.task import TaskSet
from .checkpoint import CheckpointJournal, spec_fingerprint

#: Lower bound on a power-measurement horizon: short hyperperiods (CNC's is
#: 9.6 ms) are repeated until at least this much time is simulated, so sleep
#: and variation statistics settle.
MIN_DURATION = 1_000_000.0
#: Upper bound keeping huge hyperperiods (Avionics: 118 s) tractable.
MAX_DURATION = 10_000_000.0


def measurement_duration(
    taskset: TaskSet,
    min_duration: float = MIN_DURATION,
    max_duration: float = MAX_DURATION,
) -> float:
    """Simulation horizon for power measurements on *taskset*.

    A whole number of hyperperiods at least *min_duration* long, capped at
    *max_duration* (a capped horizon is no longer a whole hyperperiod;
    acceptable for averaged power, and noted in EXPERIMENTS.md).
    """
    hyper = taskset.hyperperiod
    if hyper >= max_duration:
        return max_duration
    repeats = max(1, math.ceil(min_duration / hyper))
    return min(repeats * hyper, max_duration)


@dataclass(frozen=True)
class RunSpec:
    """One self-contained simulation cell of a campaign.

    *scheduler* is either a registry name (preferred — always picklable)
    or a zero-argument factory; a fresh policy object is built inside the
    executing process, so per-run scheduler state never leaks between
    cells.  *faults*, when present, is likewise either a ready
    :class:`~repro.faults.layer.FaultLayer` or a zero-argument factory
    for one.
    """

    taskset: TaskSet
    scheduler: Union[str, Callable[[], Any]]
    seed: int = 0
    spec: Optional[ProcessorSpec] = None
    execution_model: Optional[ExecutionTimeModel] = None
    duration: Optional[float] = None
    on_miss: str = "record"
    scheduler_overhead: float = 0.0
    faults: Union[None, FaultLayer, Callable[[], FaultLayer]] = None
    record_trace: bool = False
    extra: Dict[str, Any] = field(default_factory=dict, compare=False)

    def build_scheduler(self) -> Any:
        """Instantiate this cell's scheduler."""
        if isinstance(self.scheduler, str):
            return make_scheduler(self.scheduler)
        return self.scheduler()

    def run(self) -> SimulationResult:
        """Execute this cell and return its result."""
        faults = self.faults
        if faults is not None and not isinstance(faults, FaultLayer):
            faults = faults()
        return simulate(
            self.taskset,
            self.build_scheduler(),
            spec=self.spec,
            execution_model=self.execution_model,
            duration=self.duration,
            seed=self.seed,
            on_miss=self.on_miss,
            scheduler_overhead=self.scheduler_overhead,
            faults=faults,
            record_trace=self.record_trace,
        )


@dataclass
class CellFailure:
    """Structured, picklable record of one campaign cell that failed.

    Returned in place of a :class:`~repro.sim.metrics.SimulationResult`
    when ``run_many(..., failures="contain")`` could not produce a
    result for a cell — either the cell itself raised, or its worker
    process kept dying past the retry budget.  Carries everything
    needed to triage without re-running: the spec's identity, the
    :data:`~repro.errors.ERROR_KINDS` classification, and the original
    traceback.  ``repro_error`` is true when the cell raised a
    :class:`~repro.errors.ReproError`: a property of the cell's own
    inputs, which the same cell raises again.  ``metadata`` exists so
    campaign provenance stamping treats failures like any other result.
    """

    index: int
    taskset: str
    scheduler: str
    seed: int
    error_kind: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    metadata: Dict[str, Any] = field(default_factory=dict)
    repro_error: bool = False

    @property
    def failed(self) -> bool:
        """Always ``True`` — the isinstance-free way to filter results."""
        return True

    @classmethod
    def _for(cls, spec: RunSpec, **fields: Any) -> "CellFailure":
        """A failure record carrying *spec*'s identity."""
        scheduler = (
            spec.scheduler
            if isinstance(spec.scheduler, str)
            else getattr(spec.scheduler, "__name__", type(spec.scheduler).__name__)
        )
        return cls(
            taskset=spec.taskset.name,
            scheduler=scheduler,
            seed=spec.seed,
            metadata={"cell_wall_s": 0.0},
            **fields,
        )

    @classmethod
    def from_exception(
        cls,
        spec: RunSpec,
        exc: BaseException,
        index: int = -1,
        attempts: int = 1,
    ) -> "CellFailure":
        """Build a failure record for *spec* from a raised exception."""
        return cls._for(
            spec,
            index=index,
            error_kind=error_kind(exc),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=attempts,
            repro_error=isinstance(exc, ReproError),
        )

    @classmethod
    def from_worker_loss(
        cls, spec: RunSpec, index: int, attempts: int
    ) -> "CellFailure":
        """Build a failure record for a cell whose workers kept dying."""
        return cls._for(
            spec,
            index=index,
            error_kind="internal",
            error_type="BrokenProcessPool",
            message=(
                f"worker process died {attempts} time(s) running this cell; "
                "retry budget exhausted"
            ),
            attempts=attempts,
        )


def _run_spec(spec: RunSpec) -> SimulationResult:
    """Module-level trampoline so worker processes can unpickle the call.

    Times the cell where it actually ran (inside the worker, for pooled
    campaigns) so ``metadata["cell_wall_s"]`` survives the pickle back.
    Cells carrying an infra-chaos plan (``extra["chaos"]``) have it
    applied here — inside the executing process — so kill/slow faults
    hit the worker, not the supervisor.
    """
    t0 = perf_counter()
    chaos = spec.extra.get("chaos") if spec.extra else None
    if chaos is not None:
        from ..faults.chaos import apply_cell_chaos

        apply_cell_chaos(chaos)
    result = spec.run()
    result.metadata["cell_wall_s"] = perf_counter() - t0
    return result


def _run_spec_contained(spec: RunSpec) -> Union[SimulationResult, CellFailure]:
    """Worker trampoline for ``failures="contain"`` campaigns.

    A raising cell comes back as a picklable :class:`CellFailure`
    instead of poisoning the pool's result stream.
    """
    try:
        return _run_spec(spec)
    except Exception as exc:  # noqa: BLE001 - the containment contract
        return CellFailure.from_exception(spec, exc)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a *jobs* knob to a concrete worker count.

    One convention shared by :func:`run_many`, the service broker, and
    the CLI ``--jobs`` flags: ``None`` and ``0`` both mean *auto* — one
    worker per CPU — while any positive integer is taken literally
    (still clamped to the CPU count by :func:`run_many`, where a wider
    pool is pure overhead).  Anything else — negative counts, floats,
    bools — is a configuration error, not a silent serial fallback.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigurationError(
            f"jobs must be an integer >= 0 or None, got {jobs!r}"
        )
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class _CampaignStats:
    """Supervisor-side counters for one :func:`run_many` campaign."""

    pool_rebuilds: int = 0
    cell_retries: int = 0
    cell_failures: int = 0
    checkpoint_hits: int = 0
    checkpoint_stored: int = 0


class _PoolUnavailable(Exception):
    """Internal: process pooling does not work here; run serially."""


#: How often a pool worker checks that its supervisor process still lives.
_PARENT_POLL_S = 0.5

#: The one idle multi-worker pool kept warm between campaigns, as
#: ``(width, pool)``.  Taking it empties the slot, so two concurrent
#: campaigns never share a pool (worker-death blame stays per campaign).
_idle_pool: Optional[Tuple[int, ProcessPoolExecutor]] = None
_idle_lock = threading.Lock()


def _watch_parent() -> None:
    """Pool worker initializer: exit once the supervisor process is gone.

    A SIGKILLed supervisor never shuts its pool down, and its idle
    workers, re-parented, would block on the call queue forever.  A
    daemon thread polls ``os.getppid()``; ``PR_SET_PDEATHSIG`` would
    fire when the *thread* that forked the worker exits instead, and a
    warm pool outlives the request thread that created it.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _pool_alive(pool: ProcessPoolExecutor) -> bool:
    """True unless a worker of idle *pool* has died since it was parked.

    A worker killed while parked (OOM killer, an operator) would break
    the next campaign's first wave and be charged to its cells; checking
    the workers themselves, not only the executor's ``_broken`` flag,
    also catches a death its manager thread has not noticed yet.  The
    flag is read last: the manager sets it before it reaps the dead
    worker, which ``is_alive`` would then miss.
    """
    alive = all(process.is_alive() for process in list(pool._processes.values()))
    return alive and not pool._broken


#: Modules a pool worker would otherwise import after its fork, besides
#: the policies: the code a scenario or fault cell unpickles or builds
#: (its factories, schema and injectors) and the chaos plan applier.
_WORKER_MODULES = ("..faults.chaos", "..faults.injectors", "..scenarios.runner")


def _import_worker_modules() -> None:
    """Import every module a pool worker can need, before forking it.

    Workers are forked from a threaded parent (a server imports scenario,
    fault and policy code on request threads), and a module another
    thread is importing at the fork stays locked in every child for good.
    Importing these first waits out any import in flight, so a worker,
    warm for many campaigns, never imports repro code itself.
    """
    for name in (*policy_modules(), *_WORKER_MODULES):
        import_module(name, __package__)


def _take_pool(width: int) -> Tuple[int, ProcessPoolExecutor]:
    """``(pool width, pool)`` with at least *width* workers: the idle warm
    pool if it is wide enough and intact, else a new one.

    The caller still keeps at most two cells per requested worker in
    flight, so a wider pool never widens the set of worker-death
    suspects.  Quarantine (*width* 1) always gets a fresh pool.  New
    workers start lazily on the first submit, so this costs nothing
    until the campaign dispatches.
    """
    global _idle_pool
    stale = None
    with _idle_lock:
        if width > 1 and _idle_pool is not None and _idle_pool[0] >= width:
            stale, _idle_pool = _idle_pool, None
    if stale is not None:
        if _pool_alive(stale[1]):
            return stale
        # After one worker is SIGKILLed, a survivor can stay blocked on
        # the shared call queue, and shutdown(wait=True) would join it
        # forever: kill and reap the remaining workers first.
        for process in list(stale[1]._processes.values()):
            process.kill()
            process.join()
        stale[1].shutdown(wait=True, cancel_futures=True)
    _import_worker_modules()
    return width, ProcessPoolExecutor(max_workers=width, initializer=_watch_parent)


def _park_pool(width: int, pool: ProcessPoolExecutor) -> None:
    """Keep clean *pool* warm for the next campaign.

    The slot holds one pool; whatever it held before is shut down.
    """
    global _idle_pool
    with _idle_lock:
        displaced, _idle_pool = _idle_pool, (width, pool)
    if displaced is not None:
        displaced[1].shutdown(wait=True, cancel_futures=True)


#: Campaign progress hook: called with each committed batch of
#: ``(index, result)`` cells.
Progress = Callable[[List[Tuple[int, Any]]], None]


def _commit_batch(
    results: List[Any],
    landed: List[Tuple[int, Union[SimulationResult, CellFailure]]],
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    stats: _CampaignStats,
    progress: Optional[Progress] = None,
) -> None:
    """Store a batch of finished cells, journaling them with one fsync.

    The journal write happens *before* the checkpoint-provenance stamp,
    so the durable blobs are the pristine results; only successful cells
    are journaled — failures must recompute on resume.  *progress*, when
    given, observes the batch once — it runs supervisor-side (never in a
    worker process), after every result in it is durable.
    """
    journaled = []
    for i, result in landed:
        if isinstance(result, CellFailure):
            result.index = i
            stats.cell_failures += 1
        elif fingerprints is not None and fingerprints[i] is not None:
            journaled.append((fingerprints[i], result))
        results[i] = result
    if journal is not None and journaled:
        for (_, result), stored in zip(journaled, journal.record_many(journaled)):
            if stored:
                stats.checkpoint_stored += 1
                result.metadata["checkpoint"] = "stored"
    if progress is not None:
        progress(landed)


def _run_serial(
    spec_list: List[RunSpec],
    indices: Sequence[int],
    results: List[Any],
    failures: str,
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    stats: _CampaignStats,
    progress: Optional[Progress] = None,
) -> None:
    """In-process execution of *indices*, committing each as it lands."""
    for i in indices:
        if failures == "contain":
            result = _run_spec_contained(spec_list[i])
            if isinstance(result, CellFailure):
                result.attempts = 1
        else:
            result = _run_spec(spec_list[i])
        _commit_batch(results, [(i, result)], journal, fingerprints, stats, progress)


#: Cells kept in flight per pool worker: one running and one waiting in
#: the executor's call queue, so a worker starts its next cell the moment
#: it finishes one instead of idling through a supervisor round trip.
_CELLS_PER_WORKER = 2


def _pool_generation(
    spec_list: List[RunSpec],
    indices: Sequence[int],
    workers: int,
    failures: str,
    results: List[Any],
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    stats: _CampaignStats,
    progress: Optional[Progress] = None,
) -> Tuple[bool, List[int], List[int]]:
    """Run *indices* through one process pool until done or it breaks.

    At most ``_CELLS_PER_WORKER * workers`` cells are ever in flight, so
    when the pool breaks, the set of cells that might have killed it is
    bounded by twice the worker count, not the campaign size.  The cells
    that land in one wake-up are popped and the window topped back up
    *before* they are committed as one batch, so workers keep simulating
    while the supervisor fsyncs the journal.  Returns
    ``(broken, suspects, leftover)``: the cells in flight at the break
    (one of them is probably the killer) and the cells never submitted
    (innocent; re-dispatch freely).

    Multi-worker generations take the warm pool when it is wide enough
    and park their pool afterwards if it ended clean — nothing broken,
    nothing in flight.  Any other pool is shut down here; quarantine's
    single-worker pools are always fresh.

    Raises :class:`_PoolUnavailable` when the pool cannot even be
    created (sandboxes without process spawning).
    """
    try:
        width, pool = _take_pool(workers)
    except (OSError, PermissionError, NotImplementedError):
        raise _PoolUnavailable() from None
    runner = _run_spec if failures == "raise" else _run_spec_contained
    window = _CELLS_PER_WORKER * workers
    queue: "deque[int]" = deque(indices)
    inflight: Dict[Any, int] = {}
    broken = False
    suspects: List[int] = []

    def refill() -> bool:
        """Top the window up; False if the pool broke."""
        while queue and len(inflight) < window:
            i = queue.popleft()
            try:
                inflight[pool.submit(runner, spec_list[i])] = i
            except (BrokenProcessPool, RuntimeError):
                queue.appendleft(i)
                return False
        return True

    def commit(landed: List[Tuple[int, Any]]) -> None:
        if landed:
            _commit_batch(results, landed, journal, fingerprints, stats, progress)

    try:
        broken = not refill()
        while inflight and not broken:
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            landed = []
            error: Optional[BaseException] = None
            for future in sorted(done, key=inflight.__getitem__):
                i = inflight.pop(future)
                exc = future.exception()
                if exc is None:
                    landed.append((i, future.result()))
                elif isinstance(exc, BrokenProcessPool):
                    # The dead worker's cell could be the killer;
                    # quarantine re-runs it on its own.
                    broken = True
                    suspects.append(i)
                else:
                    # failures="raise": the cell's own exception
                    # propagates exactly as the serial path would raise
                    # it (DeadlineMissError with on_miss="raise", ...).
                    error = exc
            if not broken and error is None:
                broken = not refill()
            commit(landed)
            if error is not None:
                raise error
        if broken and inflight:
            # The pool fails every remaining future promptly once broken;
            # a worker may still have completed a cell in the same race.
            wait(list(inflight))
            landed = []
            for future, i in sorted(inflight.items(), key=lambda item: item[1]):
                if future.exception() is None and not future.cancelled():
                    landed.append((i, future.result()))
                else:
                    suspects.append(i)
            commit(landed)
    finally:
        if width > 1 and not broken and not inflight:
            _park_pool(width, pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return broken, suspects, list(queue)


def _run_pool_supervised(
    spec_list: List[RunSpec],
    indices: Sequence[int],
    workers: int,
    failures: str,
    retries: int,
    results: List[Any],
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    stats: _CampaignStats,
    progress: Optional[Progress] = None,
) -> None:
    """Supervise pool execution across worker deaths.

    When a pool breaks mid-run, completed cells keep their results; the
    cells that were in flight become *suspects* and are re-dispatched
    one at a time in single-worker quarantine pools.  A cell is blamed
    only for a pool it broke as the only cell in flight: a killer cell
    then breaks its own quarantine pool, so it is identified
    deterministically and charged against its retry budget, while
    innocent bystanders complete on their first quarantine run and are
    never charged.  Everything never submitted continues in a fresh
    full-width pool.  The first pool is no exception: a killer in its
    first wave goes through quarantine too, so no cell ever runs in the
    supervising process after a worker died.
    """
    attempts: Dict[int, int] = {i: 0 for i in indices}
    pending: List[int] = list(indices)
    quarantine: "deque[int]" = deque()
    while pending or quarantine:
        if quarantine:
            batch: List[int] = [quarantine.popleft()]
            width = 1
        else:
            batch, pending = pending, []
            width = min(workers, len(batch))
        broken, suspects, leftover = _pool_generation(
            spec_list, batch, width, failures, results, journal,
            fingerprints, stats, progress,
        )
        pending.extend(leftover)
        if not broken:
            continue
        stats.pool_rebuilds += 1
        if len(batch) > 1:
            # Any cell in flight may have killed the pool; none is
            # blamed until it breaks one alone.
            stats.cell_retries += len(suspects)
            quarantine.extend(suspects)
            continue
        for i in suspects:
            attempts[i] += 1
            if attempts[i] <= retries:
                stats.cell_retries += 1
                quarantine.append(i)
            elif failures == "contain":
                _commit_batch(
                    results,
                    [(i, CellFailure.from_worker_loss(spec_list[i], i, attempts[i]))],
                    journal,
                    fingerprints,
                    stats,
                    progress,
                )
            else:
                raise ExecutionError(
                    f"campaign cell {i} "
                    f"({spec_list[i].taskset.name}/{spec_list[i].scheduler!r}"
                    f"/seed={spec_list[i].seed}) killed its worker process "
                    f"{attempts[i]} time(s); retry budget ({retries}) exhausted"
                )


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    *,
    failures: str = "raise",
    retries: int = 2,
    checkpoint: Union[None, str, Path] = None,
    progress: Optional[Progress] = None,
) -> List[Union[SimulationResult, CellFailure]]:
    """Execute a campaign of :class:`RunSpec` cells, optionally in parallel.

    Results come back in spec order.  With ``jobs=1`` (the default) the
    cells run serially in this process; with ``jobs`` > 1 they run under
    a supervised process pool; ``jobs=None`` and ``jobs=0`` both mean
    *auto* — one worker per CPU (:func:`resolve_jobs`).  Each cell is
    seeded and self-contained, so the returned results are identical
    either way — parallelism changes wall time, never output.

    ``failures`` selects the containment policy.  The default
    ``"raise"`` propagates the first cell exception (the historical
    behaviour — ``on_miss="raise"`` campaigns still raise).  With
    ``"contain"``, a raising cell yields a structured, picklable
    :class:`CellFailure` in its slot and its neighbours keep running; a
    worker process dying mid-campaign no longer aborts the run either —
    the pool is rebuilt and only incomplete cells are re-dispatched,
    each at most ``retries`` extra times before it is given up as a
    :class:`CellFailure` (or, under ``"raise"``, an
    :class:`~repro.errors.ExecutionError`).  Only a run that breaks a
    pool with no other cell in flight counts against a cell's budget.

    ``checkpoint`` names a journal directory: completed cells are
    appended durably as they land, with one fsync per committed batch
    (keyed by :func:`~repro.experiments.checkpoint.spec_fingerprint`),
    and a rerun pointed at the same directory resumes — journaled cells
    are restored (``metadata["checkpoint"] == "hit"``) instead of
    recomputed.

    ``progress``, when given, is called with each committed batch as a
    list of ``(index, result)`` pairs — every cell appears exactly once,
    including checkpoint restores (one batch, in cell order) and
    contained :class:`CellFailure` cells — always in *this* process (the
    supervisor side), in completion order, after the batch is committed.
    Live observers (the service's campaign streaming) hang off this hook.

    The serial path is also the fallback: spec lists that cannot be
    pickled (e.g. closure-based scheduler factories) and environments
    where worker processes cannot start both degrade to in-process
    execution rather than failing.  The worker count is clamped to the
    machine's CPU count — on a single core a process pool is pure
    overhead, so the campaign runs in-process instead.

    Every returned result's ``metadata`` records how the campaign
    actually executed — ``requested_jobs`` (the knob as passed),
    ``resolved_jobs`` (after auto/CPU clamping), ``workers`` (pool size
    actually used), ``executor`` (which path ran), and ``cell_wall_s``
    — and the same numbers are gauged into the thread-locally installed
    obs registry, so dumped campaign JSON is self-describing.
    """
    spec_list = list(specs)
    if failures not in ("raise", "contain"):
        raise ConfigurationError(
            f"failures must be 'raise' or 'contain', got {failures!r}"
        )
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise ConfigurationError(f"retries must be an integer >= 0, got {retries!r}")
    resolved = min(resolve_jobs(jobs), os.cpu_count() or 1)
    t0 = perf_counter()
    stats = _CampaignStats()
    results: List[Any] = [None] * len(spec_list)
    journal: Optional[CheckpointJournal] = None
    fingerprints: Optional[List[Optional[str]]] = None
    pending = list(range(len(spec_list)))
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint)
        fingerprints = [spec_fingerprint(spec) for spec in spec_list]
        stored = journal.load(fp for fp in fingerprints if fp is not None)
        remaining = []
        hits = []
        for i in pending:
            fp = fingerprints[i]
            hit = stored.get(fp) if fp is not None else None
            if hit is not None:
                hit.metadata["checkpoint"] = "hit"
                results[i] = hit
                hits.append((i, hit))
            else:
                remaining.append(i)
        stats.checkpoint_hits = len(hits)
        if hits and progress is not None:
            progress(hits)
        pending = remaining
    try:
        if resolved <= 1 or len(pending) <= 1:
            executor, workers = "serial", 1
            _run_serial(
                spec_list, pending, results, failures, journal,
                fingerprints, stats, progress,
            )
        else:
            try:
                pickle.dumps([spec_list[i] for i in pending])
                picklable = True
            except Exception:
                picklable = False
            if not picklable:
                executor, workers = "serial-fallback-unpicklable", 1
                _run_serial(
                    spec_list, pending, results, failures, journal,
                    fingerprints, stats, progress,
                )
            else:
                workers = min(resolved, len(pending))
                try:
                    _run_pool_supervised(
                        spec_list, pending, workers, failures, retries,
                        results, journal, fingerprints, stats, progress,
                    )
                    executor = "process-pool"
                except _PoolUnavailable:
                    # Sandboxes without working process spawning fall
                    # back to serial.
                    executor, workers = "serial-fallback-broken-pool", 1
                    _run_serial(
                        spec_list, pending, results, failures, journal,
                        fingerprints, stats, progress,
                    )
    finally:
        if journal is not None:
            journal.close()
    _annotate_campaign(
        results, jobs, resolved, workers, executor, perf_counter() - t0, stats
    )
    return results


def _annotate_campaign(
    results: List[Union[SimulationResult, CellFailure]],
    requested_jobs: Optional[int],
    resolved_jobs: int,
    workers: int,
    executor: str,
    wall_s: float,
    stats: Optional[_CampaignStats] = None,
) -> None:
    """Stamp execution provenance on *results* and gauge it into obs."""
    busy_s = 0.0
    for result in results:
        metadata = result.metadata
        metadata["requested_jobs"] = requested_jobs
        metadata["resolved_jobs"] = resolved_jobs
        metadata["workers"] = workers
        metadata["executor"] = executor
        busy_s += float(metadata.get("cell_wall_s", 0.0))
    obs = current()
    if not obs.enabled:
        return
    obs.count("runner.campaigns")
    obs.count("runner.cells", len(results))
    obs.count(f"runner.executor.{executor}")
    obs.gauge("runner.resolved_jobs", float(resolved_jobs))
    obs.gauge("runner.workers", float(workers))
    obs.gauge("runner.campaign_wall_s", wall_s, units="s")
    if stats is not None:
        for name, value in (
            ("runner.pool_rebuilds", stats.pool_rebuilds),
            ("runner.cell_retries", stats.cell_retries),
            ("runner.cell_failures", stats.cell_failures),
            ("runner.checkpoint_hits", stats.checkpoint_hits),
            ("runner.checkpoint_stored", stats.checkpoint_stored),
        ):
            if value:
                obs.count(name, value)
    for result in results:
        obs.observe(
            "runner.cell_wall_s", float(result.metadata.get("cell_wall_s", 0.0))
        )
    if wall_s > 0.0 and workers > 0 and results:
        # Fraction of the pool's capacity spent inside cells: 1.0 means
        # every worker was busy simulating for the whole campaign.
        obs.gauge("runner.worker_utilization", busy_s / (wall_s * workers))


@dataclass(frozen=True)
class ComparisonPoint:
    """Averaged result of one scheduler at one sweep point."""

    scheduler: str
    average_power: float
    deadline_misses: int
    sleep_entries: float
    speed_changes: float
    runs: int

    def reduction_vs(self, baseline: "ComparisonPoint") -> float:
        """Fractional power reduction relative to *baseline*."""
        if baseline.average_power <= 0:
            return 0.0
        return 1.0 - self.average_power / baseline.average_power


def seed_mean(values: Sequence[float]) -> float:
    """Mean of *values*, accumulated left to right.

    From Python 3.12 on, ``sum()`` rounds float totals with compensated
    summation, which moves the last bit of some seed-averaged powers.
    A plain fold gives the bits ``sum()`` gives before 3.12 on every
    version.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def compare_schedulers(
    taskset: TaskSet,
    schedulers: Dict[str, "object"],
    spec: Optional[ProcessorSpec] = None,
    execution_model: Optional[ExecutionTimeModel] = None,
    seeds: Sequence[int] = (1, 2, 3),
    duration: Optional[float] = None,
    on_miss: str = "record",
    jobs: Optional[int] = 1,
    checkpoint: Union[None, str, Path] = None,
) -> Dict[str, ComparisonPoint]:
    """Run every scheduler over every seed and average the powers.

    *schedulers* maps display names to factory callables — registry names
    or zero-argument factories (a fresh policy object per run keeps
    per-run state clean).  *jobs* > 1 fans the (scheduler, seed) grid out
    over :func:`run_many` worker processes; the averaged numbers are
    identical to the serial ones.  *checkpoint* names a journal
    directory so an interrupted comparison resumes instead of rerunning
    (registry-named schedulers only; factory cells always recompute).
    """
    spec = spec if spec is not None else ProcessorSpec.arm8()
    model = execution_model if execution_model is not None else GaussianModel()
    horizon = duration if duration is not None else measurement_duration(taskset)
    names = list(schedulers)
    cells = [
        RunSpec(
            taskset=taskset,
            scheduler=schedulers[name],
            seed=seed,
            spec=spec,
            execution_model=model,
            duration=horizon,
            on_miss=on_miss,
        )
        for name in names
        for seed in seeds
    ]
    results = run_many(cells, jobs=jobs, checkpoint=checkpoint)
    points: Dict[str, ComparisonPoint] = {}
    n_seeds = len(seeds)
    for i, name in enumerate(names):
        block = results[i * n_seeds : (i + 1) * n_seeds]
        powers: List[float] = []
        misses = 0
        sleeps = 0.0
        speed_changes = 0.0
        for result in block:
            powers.append(result.average_power)
            misses += len(result.deadline_misses)
            sleeps += result.sleep_entries
            speed_changes += result.speed_changes
        points[name] = ComparisonPoint(
            scheduler=name,
            average_power=seed_mean(powers),
            deadline_misses=misses,
            sleep_entries=sleeps / n_seeds,
            speed_changes=speed_changes / n_seeds,
            runs=n_seeds,
        )
    return points
