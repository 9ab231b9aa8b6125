"""The simulation kernel: a thin, exact event loop over components.

The :class:`Simulator` binds one task set, one scheduler, and one
processor spec, and advances time exactly from scheduling boundary to
scheduling boundary — the speed profile is piecewise linear between
boundaries, so completions and energy are solved in closed form
(:mod:`repro.sim.profile`) rather than ticked.

Since the kernel decomposition, the engine itself only owns the event
loop, the queue/job lifecycle (paper §3.1: priority-ordered run queue,
release-time-ordered delay queue, the active job held outside both), and
decision application.  Everything else lives in explicit collaborator
components:

* :class:`~repro.sim.speed_control.SpeedController` — DVS ramp state
  machine, timed restores, the fault-aware speed write;
* :class:`~repro.sim.sleep_control.SleepController` — wake-timer
  programming, deferred sleeps, the sleep guard;
* :class:`~repro.sim.power_accounting.PowerAccountant` — per-state
  energy integration and speed residency, feeding the audit;
* :class:`~repro.sim.recording.Recorder` — segment/event capture, with
  a null implementation for cheap campaign sweeps.

The engine object doubles as the *kernel view* handed to schedulers: its
public attributes (``now``, ``run_queue``, ``delay_queue``,
``active_job``, ``speed``, ``at_full_speed``, ``spec``) and
:meth:`move_due_releases` are the sanctioned scheduler-facing API.
"""

from __future__ import annotations

import enum
import math
import random
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..errors import (
    ConfigurationError,
    DeadlineMissError,
    SimulationError,
)
from ..faults.guards import GuardActivation, GuardConfig
from ..faults.injector import FaultEvent
from ..faults.layer import FaultLayer
from ..obs.registry import Registry
from ..power.processor import ProcessorSpec
from ..tasks.generation import ExecutionTimeModel, WcetModel
from ..tasks.job import Job
from ..tasks.task import Task, TaskSet
from .events import KEEP, NO_CHANGE, SchedEvent
from .metrics import (
    DeadlineMiss,
    SimulationResult,
    TaskStats,
)
from .power_accounting import PowerAccountant
from .profile import TIME_EPS as _TIME_EPS
from .profile import WORK_EPS as _WORK_EPS
from .queues import DelayQueue, RunQueue
from .recording import NULL_RECORDER, Recorder, TraceBackedRecorder
from .sleep_control import SleepController, WAKE
from .speed_control import SpeedController

#: Zero-time scheduler re-invocations tolerated before declaring livelock.
_MAX_STALL = 10_000

_INF = float("inf")

#: Obs counter names for the per-event pass tally, applied at flush —
#: the hot path counts by event and never builds strings.
_EVENT_COUNT_KEYS = {
    event: f"sched.invocations.{event.value}" for event in SchedEvent
}

#: Obs phase accumulator slots.  Each holds ``[total_s, count]``; the
#: names tile the event loop (see ``_flush_obs`` for the nesting rules).
_OBS_PHASES = (
    "scan", "advance", "ramp", "handle", "dispatch", "release", "sleep"
)

#: Every decision kind ``_invoke_scheduler`` names as it applies a
#: decision — preseeded into the obs count dict so the hot path is a bare
#: ``counts[key] += 1``.
_DECISION_KINDS = (
    "sched.decisions.sleep",
    "sched.decisions.speed",
    "sched.decisions.no_change",
    "sched.decisions.dispatch",
    "sched.decisions.idle",
)

#: Obs counter for RAMP_DONE passes the kernel skipped because the policy
#: declared them no-ops (``Scheduler.ramp_done_is_noop``).
_SKIPPED_RAMP_DONE = "sched.skipped.ramp_done"


class _Mode(enum.Enum):
    """Processor macro-state."""

    RUNNING = "running"
    IDLE = "idle"
    SLEEP = "sleep"
    WAKING = "waking"


# Module aliases for the enum members the loop tests or passes on every
# iteration: an attribute lookup on an ``Enum`` class costs ~0.1 µs on
# CPython 3.11, a measurable share of one iteration.
_RUNNING = _Mode.RUNNING
_IDLE = _Mode.IDLE
_SLEEP = _Mode.SLEEP
_WAKING = _Mode.WAKING
_COMPLETION = SchedEvent.COMPLETION
_RELEASE = SchedEvent.RELEASE
_RAMP_DONE = SchedEvent.RAMP_DONE


class Simulator:
    """One simulation run binding a task set, scheduler, and processor.

    Parameters
    ----------
    taskset:
        The (usually prioritised) periodic task set.
    scheduler:
        A :class:`~repro.schedulers.base.Scheduler` instance.
    spec:
        Processor specification; defaults to the paper's ARM8-like core.
    execution_model:
        Draws each job's actual demand; defaults to "always WCET"
        (the Figure 2(a) configuration).
    duration:
        Simulation horizon in µs; defaults to one hyperperiod.
    seed:
        RNG seed for the execution-time model.
    on_miss:
        ``"raise"`` (default) aborts on the first deadline miss;
        ``"record"`` keeps simulating and reports misses in the result.
    record_trace:
        When True, attach a full :class:`~repro.sim.trace.TraceRecorder`
        to the result (costs memory on long runs).
    scheduler_overhead:
        Processor time in µs consumed by *every* scheduler invocation,
        charged at the current speed's active power before the decision
        takes effect.  The paper stresses that the LPFPS additions must
        stay cheap ("the overhead of the scheduler should be kept as small
        as possible so as not to violate the schedulability"); this knob
        makes that cost — and the §5 heuristic-vs-optimal trade-off —
        measurable.  Default 0 (the paper's own idealisation).
    faults:
        Optional :class:`~repro.faults.layer.FaultLayer` bundling fault
        injectors with graceful-degradation guards.  ``None`` (default) is
        the paper's idealised platform.  A layer whose injectors all sit at
        zero intensity leaves the simulation bit-identical to ``None``.
    recorder:
        Explicit :class:`~repro.sim.recording.Recorder` to install,
        overriding *record_trace*.  Campaign sweeps pass the shared
        null recorder implicitly by leaving both at their defaults.
    obs:
        Optional :class:`~repro.obs.registry.Registry` receiving kernel
        phase spans (release scan, dispatch, speed-ramp, sleep) and
        per-decision counters.  ``None`` (default) collects nothing and
        stays off every hot path; an enabled registry only reads the
        monotonic clock and writes to its own accumulators, so the
        simulated schedule, trace, and energy are bit-identical either
        way.  Span timing honours ``obs.sample`` (one timed iteration
        in N, scaled back up); counters are always exact.
    """

    def __init__(
        self,
        taskset: TaskSet,
        scheduler,
        spec: Optional[ProcessorSpec] = None,
        execution_model: Optional[ExecutionTimeModel] = None,
        duration: Optional[float] = None,
        seed: int = 0,
        on_miss: str = "raise",
        record_trace: bool = False,
        scheduler_overhead: float = 0.0,
        faults: Optional[FaultLayer] = None,
        recorder: Optional[Recorder] = None,
        obs: Optional[Registry] = None,
    ):
        if on_miss not in ("raise", "record"):
            raise ConfigurationError(
                f"on_miss must be 'raise' or 'record', got {on_miss!r}"
            )
        self.taskset = taskset
        self.scheduler = scheduler
        self._schedule_fn = scheduler.schedule
        self.spec = spec if spec is not None else ProcessorSpec.arm8()
        self._exec_model = (
            execution_model if execution_model is not None else WcetModel()
        )
        self.horizon = float(duration) if duration is not None else taskset.hyperperiod
        if not 0 < self.horizon < math.inf:  # also refuses NaN
            raise ConfigurationError(
                f"duration must be finite and > 0, got {self.horizon}"
            )
        self._rng = random.Random(seed)
        self._on_miss = on_miss
        if scheduler_overhead < 0:
            raise ConfigurationError(
                f"scheduler_overhead must be >= 0, got {scheduler_overhead}"
            )
        self._overhead = scheduler_overhead
        tick = scheduler.tick_interval
        if tick is not None and tick <= 0:
            raise ConfigurationError(f"tick_interval must be > 0, got {tick}")
        self._tick_interval: Optional[float] = tick
        self._next_tick: Optional[float] = tick

        if scheduler.requires_priorities:
            taskset.assert_priorities()
        elif not taskset.has_priorities:
            # Deterministic tie-breaking still needs per-task ordering keys.
            taskset = taskset.with_tasks(
                [t.with_priority(i) for i, t in enumerate(taskset)]
            )
            self.taskset = taskset

        # -- kernel state (public: schedulers read these) --------------------
        self.now: float = 0.0
        self.run_queue = RunQueue(key=scheduler.run_queue_key)
        self.delay_queue = DelayQueue()
        self.active_job: Optional[Job] = None

        # -- components --------------------------------------------------------
        if recorder is None:
            recorder = TraceBackedRecorder() if record_trace else NULL_RECORDER
        self._recorder = recorder
        # Hoisted off the hot paths; a recorder's enabled flag is fixed.
        self._rec_on = recorder.enabled
        self._speed_ctrl = SpeedController(self.spec, faults, recorder)
        self._sleep_ctrl = SleepController(faults, recorder)
        self._acct = PowerAccountant(self.spec.power)
        # Fixed per run; read on every ramp span and every wake-up.
        self._executes_during_change = self.spec.transition.executes_during_change
        self._wakeup_delay = self.spec.wakeup_delay

        # -- fault layer and guards -------------------------------------------
        self._faults = faults
        self._guards = faults.guards if faults is not None else GuardConfig.none()
        self._injecting = faults is not None and faults.injects
        # A scheduler pass has a side effect of its own when it is charged
        # processor time or draws from the fault RNG; only free passes may
        # be skipped when the policy declares their answer a no-op.
        self._free_passes = scheduler_overhead == 0.0 and not self._injecting
        # Guard flags hoisted off the per-boundary paths (fixed per run).
        self._watchdog_on = self._guards.overrun_watchdog
        self._abort_mode = self._guards.miss_policy == "abort"
        self._guard_activations: List[GuardActivation] = []
        if faults is not None:
            faults.reset()
            faults.observer = self._on_fault_event

        # -- observability ----------------------------------------------------
        self._obs = obs if (obs is not None and obs.enabled) else None
        #: True while the current loop iteration is being span-timed.
        #: Phase timing happens only on live iterations and is scaled back
        #: up by the sampling ratio at flush; counters are kept on every
        #: iteration, so they are exact at any sampling period.
        self._obs_live = False
        if self._obs is not None:
            self._obs_period = max(1, self._obs.sample)
            self._obs_phase: Optional[Dict[str, List[float]]] = {
                name: [0.0, 0.0] for name in _OBS_PHASES
            }
            # Passes are tallied by event (identity-hashed) and named at
            # flush; decisions, releases and skips by counter name.
            self._obs_events = {event: 0 for event in SchedEvent}
            counts = {kind: 0 for kind in _DECISION_KINDS}
            counts["kernel.releases"] = 0
            counts[_SKIPPED_RAMP_DONE] = 0
            self._obs_counts: Optional[Dict[str, int]] = counts
            self._obs_boundary: Dict[str, int] = defaultdict(int)
            self._obs_iter = 0
            self._obs_sampled_iters = 0
            # Setup/INIT phase time (timed live, outside sampling) is
            # snapshotted in run() so flush can exclude it from the
            # sampling scale-up; this default covers the no-run case.
            self._obs_init_phase = {name: [0.0, 0.0] for name in _OBS_PHASES}
        else:
            self._obs_phase = None
            self._obs_counts = None

        # -- engine-private state ---------------------------------------------
        self._mode = _IDLE
        # move_due_releases memo: the call is idempotent within one
        # scheduling point, so repeat calls at the same instant with no
        # intervening delay-queue pushes can return immediately.
        self._push_epoch = 0
        self._moved_at = -1.0
        self._moved_epoch = -1

        # -- accounting -------------------------------------------------------
        self._task_stats: Dict[str, TaskStats] = {
            t.name: TaskStats(t.name) for t in self.taskset
        }
        self._misses: List[DeadlineMiss] = []
        self._context_switches = 0
        self._preemptions = 0
        self._jobs_completed = 0

    # ------------------------------------------------------------------ #
    # Kernel API used by schedulers                                       #
    # ------------------------------------------------------------------ #
    @property
    def speed(self) -> float:
        """Current speed ratio (start speed while a ramp is in flight)."""
        return self._speed_ctrl.speed

    @property
    def at_full_speed(self) -> bool:
        """True when the clock sits at full speed with no ramp in flight."""
        speed_ctrl = self._speed_ctrl
        return speed_ctrl.ramp is None and speed_ctrl.speed >= 1.0 - 1e-9

    @property
    def energy(self):
        """The run's per-state :class:`~repro.sim.metrics.EnergyBreakdown`."""
        return self._acct.energy

    def move_due_releases(self) -> List[Job]:
        """Move every due task from the delay queue to the run queue.

        Implements lines L5–L7 of the paper's pseudo-code: instantiates a
        :class:`Job` per due release (drawing its actual demand) and pushes
        it into the run queue.  Idempotent within a scheduling point.
        """
        now = self.now
        if now == self._moved_at and self._push_epoch == self._moved_epoch:
            return []
        self._moved_at = now
        self._moved_epoch = self._push_epoch
        heap = self.delay_queue._heap
        if not heap or heap[0][0] > now + _TIME_EPS:
            return []
        obs_live = self._obs_live
        if obs_live:
            _t0 = perf_counter()
        released = []
        sample = self._exec_model.sample
        rng = self._rng
        push = self.run_queue.push
        stats = self._task_stats
        injecting = self._injecting
        rec_on = self._rec_on
        for task, release_time, job_index in self.delay_queue.pop_due(now, _TIME_EPS):
            demand = sample(task, rng)
            if injecting:
                self._faults.advance_clock(now)
                demand = self._faults.perturb_demand(
                    task, demand, f"{task.name}#{job_index}"
                )
                job = Job(
                    task, job_index, release_time, demand,
                    faulted=demand > task.wcet + _WORK_EPS,
                )
            else:
                job = Job(task, job_index, release_time, demand)
            push(job)
            stats[task.name].jobs_released += 1
            if rec_on:
                self._recorder.event(now, "release", job.name)
            released.append(job)
        if self._obs_counts is not None:
            self._obs_counts["kernel.releases"] += len(released)
            if obs_live:
                acc = self._obs_phase["release"]
                acc[0] += perf_counter() - _t0
                acc[1] += 1.0
        return released

    def count_preemption(self) -> None:
        """Schedulers call this when they push the active job back."""
        self._preemptions += 1

    def _push_release(self, task: Task, nominal: float, job_index: int) -> None:
        """Queue a future release, letting the fault layer jitter its fire time."""
        fire = nominal
        if self._injecting:
            self._faults.advance_clock(self.now)
            fire = self._faults.perturb_release(task, nominal)
        self._push_epoch += 1
        self.delay_queue.push(task, fire, job_index, nominal=nominal)

    def _on_fault_event(self, event: FaultEvent) -> None:
        if self._rec_on:
            self._recorder.event(
                event.time, "fault", f"{event.injector}:{event.detail}"
            )

    def _record_guard(self, guard: str, detail: str, job: Optional[str]) -> None:
        activation = GuardActivation(time=self.now, guard=guard, detail=detail, job=job)
        self._guard_activations.append(activation)
        if self._rec_on:
            label = f"{guard}:{job}" if job else guard
            self._recorder.event(self.now, "guard", f"{label}:{detail}")

    # ------------------------------------------------------------------ #
    # Main loop                                                            #
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        obs_on = self._obs is not None
        if obs_on:
            _run_t0 = perf_counter()
            self._obs_live = True  # time setup + INIT into "dispatch"
        for task in self.taskset:
            self._push_release(task, task.phase, 0)
        self.scheduler.setup(self)
        self._invoke_scheduler(SchedEvent.INIT)
        if obs_on:
            # One-time setup/INIT work was timed live but outside the
            # loop's sampling; snapshot it so flush keeps it unscaled.
            self._obs_init_phase = {
                name: list(acc) for name, acc in self._obs_phase.items()
            }

        stall = 0
        horizon = self.horizon
        cutoff = horizon - _TIME_EPS
        next_boundary = self._next_boundary
        integrate = self._integrate
        speed_ctrl = self._speed_ctrl
        handle_boundary = self._handle_boundary
        # Obs tiling: when live, consecutive timestamps _t0/_t1/_t2 carve
        # each iteration into scan | advance-or-ramp | handle, so phase
        # self-times sum to the loop's wall time (profile's invariant).
        # The sampling countdown and live-iteration tally are loop locals,
        # stored back for the flush once the loop ends.
        live = False
        phase = self._obs_phase
        if obs_on:
            boundary = self._obs_boundary
            countdown = self._obs_iter
            sampled = self._obs_sampled_iters
            restart = self._obs_period - 1
        while self.now < cutoff:
            if obs_on:
                if countdown:
                    countdown -= 1
                    if live:
                        live = False
                        self._obs_live = False
                else:
                    countdown = restart
                    sampled += 1
                    live = True
                    self._obs_live = True
                    _t1 = _t0 = perf_counter()
            t_next, reason = next_boundary()
            if obs_on:
                if live:
                    _t1 = perf_counter()
                    acc = phase["scan"]
                    acc[0] += _t1 - _t0
                    acc[1] += 1.0
                boundary[reason] += 1
            if t_next > horizon:
                t_next = horizon
            now = self.now
            if t_next < now - _TIME_EPS:
                raise SimulationError(
                    f"time would run backwards: {now} -> {t_next} ({reason})"
                )
            if t_next > now + _TIME_EPS:
                # Advance: integrate work/energy over [now, t_next].  A
                # ramp end is always a boundary candidate, so the span has
                # one linear speed law.
                ramp = speed_ctrl.ramp
                integrate(now, t_next)
                if ramp is not None:
                    speed_ctrl.finish_ramp_if_past(t_next)
                stall = 0
                if live:
                    _t2 = perf_counter()
                    acc = phase["ramp" if ramp is not None else "advance"]
                    acc[0] += _t2 - _t1
                    acc[1] += 1.0
            else:
                if live:
                    _t2 = _t1
                stall += 1
                if stall > _MAX_STALL:
                    raise SimulationError(
                        f"livelock at t={now} (reason={reason}, "
                        f"mode={self._mode}, active={self.active_job})"
                    )
            self.now = t_next
            if t_next >= cutoff:
                break
            handle_boundary()
            if live:
                acc = phase["handle"]
                acc[0] += perf_counter() - _t2
                acc[1] += 1.0
        result = self._finalize()
        if obs_on:
            self._obs_live = False
            self._obs_iter = countdown
            self._obs_sampled_iters = sampled
            self._flush_obs(_run_t0)
        return result

    # ------------------------------------------------------------------ #
    # Boundary computation                                                 #
    # ------------------------------------------------------------------ #
    def _next_boundary(self) -> Tuple[float, str]:
        """Earliest upcoming boundary and why it stops the clock.

        Candidates are considered in a fixed order with strict ``<``
        comparisons, so exact ties resolve to the earliest-considered
        reason — the same tie-break the original candidate-list ``min``
        produced.
        """
        best_t, best_r = self.horizon, "horizon"
        mode = self._mode
        if mode is _SLEEP:
            for t, reason in self._sleep_ctrl.wake_candidates(
                self.delay_queue, self._guards
            ):
                if t < best_t:
                    best_t, best_r = t, reason
        else:
            heap = self.delay_queue._heap
            if heap and heap[0][0] < best_t:
                best_t, best_r = heap[0][0], "release"
            speed_ctrl = self._speed_ctrl
            ramp = speed_ctrl.ramp
            if ramp is not None and ramp.end_time < best_t:
                best_t, best_r = ramp.end_time, "ramp"
            sleep_ctrl = self._sleep_ctrl
            if sleep_ctrl.pending_at is not None and sleep_ctrl.pending_at < best_t:
                best_t, best_r = sleep_ctrl.pending_at, "pending_sleep"
            if speed_ctrl.restore_at is not None and speed_ctrl.restore_at < best_t:
                best_t, best_r = speed_ctrl.restore_at, "restore"
            if self._next_tick is not None and self._next_tick < best_t:
                best_t, best_r = self._next_tick, "tick"
            job = self.active_job
            if job is not None:
                remaining = job.execution_time - job.executed
                if remaining < 0.0:
                    remaining = 0.0
                if ramp is None:
                    # time_for_work's steady-clock closed form, inlined.
                    if remaining <= _WORK_EPS:
                        completion = self.now
                    elif speed_ctrl.speed <= 0.0:
                        completion = _INF
                    else:
                        completion = self.now + remaining / speed_ctrl.speed
                else:
                    completion = speed_ctrl.time_for_work(self.now, remaining)
                if completion < best_t:
                    best_t, best_r = completion, "completion"
                if self._watchdog_on and job.faulted:
                    watchdog = self._watchdog_time()
                    if watchdog is not None and watchdog < best_t:
                        best_t, best_r = watchdog, "watchdog"
                if self._abort_mode and remaining > _WORK_EPS:
                    containment = max(self.now, job.absolute_deadline)
                    if containment < best_t:
                        best_t, best_r = containment, "containment"
        return best_t, best_r

    def _watchdog_time(self) -> Optional[float]:
        """When the overrun watchdog would fire, or ``None``.

        The watchdog arms only while an overrun-faulted job runs toward a
        below-full-speed target: its ``C_i - E_i`` budget (what the
        slow-down was provisioned for, Eq. 3) then runs out strictly before
        the job completes.  Non-faulted jobs finish within their budget by
        construction, so gating on :attr:`Job.faulted` keeps the fault-free
        boundary schedule — and hence the trace — bit-identical.
        """
        if not self._guards.overrun_watchdog:
            return None
        job = self.active_job
        if job is None or not job.faulted:
            return None
        if self._speed_ctrl.current_target() >= 1.0 - 1e-9:
            return None
        return self._speed_ctrl.time_for_work(self.now, job.remaining_wcet)

    # ------------------------------------------------------------------ #
    # Time advance: integrate work and energy over [self.now, t1]         #
    # ------------------------------------------------------------------ #
    def _integrate(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        if dt <= 0:
            return
        acct = self._acct
        speed_ctrl = self._speed_ctrl
        ramp = speed_ctrl.ramp
        ramping = ramp is not None and t0 < ramp.end_time - _TIME_EPS
        if ramping:
            s0 = ramp.speed_at(t0)
            s1 = ramp.speed_at(t1)
        else:
            s0 = s1 = speed_ctrl.speed

        mode = self._mode
        if mode is _RUNNING:
            job = self.active_job
            if ramping:
                if self._executes_during_change:
                    # The span lies inside the ramp (a ramp starts at the
                    # current time and its end is always a boundary), so
                    # ramp.work_between(t0, t1) is this trapezoid.
                    work = 0.5 * (s0 + s1) * dt
                else:
                    work = 0.0
                acct.run_ramp(s0, s1, dt)
                acct.residency((s0 + s1) / 2.0, dt)
            else:
                work = s0 * dt
                # Fused energy + residency; a steady span's mean speed
                # (s0 + s1) / 2 is exactly s0.
                acct.run_steady(s0, dt)
            job.executed += work
            if job.execution_time - job.executed <= _WORK_EPS:
                job.executed = job.execution_time
            if self._rec_on:
                self._recorder.segment(t0, t1, "run", job.name, job.task.name, s0, s1)
        elif mode is _IDLE:
            if ramping:
                acct.run_ramp(s0, s1, dt)
            else:
                acct.idle(speed_ctrl.speed, dt)
            if self._rec_on:
                self._recorder.segment(t0, t1, "idle", None, None, s0, s1)
        elif mode is _SLEEP:
            acct.sleep(dt)
            if self._rec_on:
                self._recorder.segment(t0, t1, "sleep", None, None, s0, s1)
        elif mode is _WAKING:
            # Charge full active power while the core relocks (conservative).
            acct.wakeup(dt)
            if self._rec_on:
                self._recorder.segment(t0, t1, "wakeup", None, None, s0, s1)

    # ------------------------------------------------------------------ #
    # Boundary handling                                                    #
    # ------------------------------------------------------------------ #
    def _handle_boundary(self) -> None:
        now = self.now
        mode = self._mode
        sleep_ctrl = self._sleep_ctrl
        if mode is _SLEEP:
            obs_live = self._obs_live
            if obs_live:
                _t0 = perf_counter()
            action, guard = sleep_ctrl.resolve_boundary(
                now, self.delay_queue, self._guards
            )
            if obs_live:
                # _begin_wake may invoke the scheduler (its own span);
                # only the power-down resolution itself is "sleep" time.
                acc = self._obs_phase["sleep"]
                acc[0] += perf_counter() - _t0
                acc[1] += 1.0
            if guard is not None:
                self._record_guard(guard[0], guard[1], None)
            if action is WAKE:
                self._begin_wake()
            return
        if (
            sleep_ctrl.pending_at is not None
            and mode is _IDLE
            and now >= sleep_ctrl.pending_at - _TIME_EPS
        ):
            obs_live = self._obs_live
            if obs_live:
                _t0 = perf_counter()
            self._enter_sleep(sleep_ctrl.pending_until)
            sleep_ctrl.clear_pending()
            if obs_live:
                acc = self._obs_phase["sleep"]
                acc[0] += perf_counter() - _t0
                acc[1] += 1.0
            return

        job = self.active_job
        if job is not None:
            remaining = job.execution_time - job.executed
            if remaining < 0.0:
                remaining = 0.0
            if remaining <= _WORK_EPS:
                self._complete_active()
                self._invoke_scheduler(_COMPLETION)
                return
        if (
            job is not None
            and job.faulted
            and self._watchdog_on
            and job.remaining_wcet <= _WORK_EPS
            and self._speed_ctrl.current_target() < 1.0 - 1e-9
        ):
            # Overrun watchdog: the C_i - E_i budget the slow-down was
            # provisioned for is spent and the job is still running — its
            # true demand exceeded the WCET.  Snap back to full speed (the
            # fail-safe DVS direction) without waiting for the policy's
            # next scheduling point, and cancel any armed restore (it is
            # subsumed).
            self._record_guard(
                "watchdog", "WCET budget exhausted; snapped to full speed", job.name
            )
            self._speed_ctrl.cancel_restore()
            self._speed_ctrl.set_target(self.now, 1.0, faultable=False)
            return
        if (
            job is not None
            and self._abort_mode
            and remaining > _WORK_EPS
            and now >= job.absolute_deadline - _TIME_EPS
        ):
            self._abort_active()
            self._invoke_scheduler(SchedEvent.ABORT)
            return
        speed_ctrl = self._speed_ctrl
        if speed_ctrl.restore_at is not None:
            restore_target = speed_ctrl.take_due_restore(now)
            if restore_target is not None:
                # Pre-arranged speed change (optimal profile's up-ramp, or
                # a dual-level quantisation switch): no scheduler pass
                # needed.
                speed_ctrl.set_target(now, restore_target)
                return
        heap = self.delay_queue._heap
        if heap and now >= heap[0][0] - _TIME_EPS:
            self._invoke_scheduler(_RELEASE)
            return
        if self._next_tick is not None and now >= self._next_tick - _TIME_EPS:
            while self._next_tick <= now + _TIME_EPS:
                self._next_tick += self._tick_interval
            self._invoke_scheduler(SchedEvent.TICK)
            return
        if speed_ctrl.ramp is None:
            # A ramp that just finished in the advance step cleared itself;
            # no other boundary explains the stop, so this is RAMP_DONE.
            # Skip the pass when it is free and the policy declared its
            # answer NO_CHANGE.  Skipping must equal running it: applying
            # NO_CHANGE clears a deferred sleep, and the pass may move due
            # releases, so neither may be pending.
            if (
                self._free_passes
                and self.scheduler.ramp_done_is_noop
                and sleep_ctrl.pending_at is None
                and not (heap and heap[0][0] <= now + _TIME_EPS)
            ):
                if self._obs_counts is not None:
                    self._obs_counts[_SKIPPED_RAMP_DONE] += 1
                return
            self._invoke_scheduler(_RAMP_DONE)

    def _begin_wake(self) -> None:
        """Leave power-down: relock for ``wakeup_delay``, then pass ``WAKE``.

        Nothing can end the relock window but its own expiry, so it is
        integrated here and the ``WAKE`` pass runs in the same loop
        iteration as the timer or interrupt that woke the core.  A window
        that reaches the horizon ends the run instead.
        """
        self._sleep_ctrl.clear_timer()
        now = self.now
        end = min(now + self._wakeup_delay, self.horizon)
        if end > now + _TIME_EPS:
            self._mode = _WAKING
            self._integrate(now, end)
        self.now = end
        self._mode = _IDLE
        if end < self.horizon - _TIME_EPS:
            self._invoke_scheduler(SchedEvent.WAKE)

    def _enter_sleep(self, until: Optional[float]) -> None:
        if self.active_job is not None:
            raise SimulationError("cannot power down with an active job")
        # A sleeping core is not ramping; freeze the speed where it stands.
        self._speed_ctrl.freeze(self.now)
        self._mode = _SLEEP
        self._sleep_ctrl.arm(self.now, until)

    def _complete_active(self) -> None:
        job = self.active_job
        now = self.now
        job.completion_time = now
        job.executed = job.execution_time
        self.active_job = None
        self._jobs_completed += 1
        task = job.task
        self._task_stats[task.name].record_completion(job)
        if now > job.absolute_deadline + _TIME_EPS:
            self._record_miss(job, now)
        if self._injecting:
            self._push_release(task, job.next_release, job.index + 1)
        else:
            # ``_push_release`` without a fault layer to jitter the fire time.
            self._push_epoch += 1
            self.delay_queue.push(task, job.release_time + task.period, job.index + 1)
        if self._rec_on:
            self._recorder.event(now, "completion", job.name)

    def _abort_active(self) -> None:
        """Deadline-miss containment: kill the active job at its deadline.

        The job is *not* counted as completed; its next release is queued as
        if it had finished, so the overrun cannot displace future instances
        of its own task or run on into lower-priority tasks' windows.
        """
        job = self.active_job
        self.active_job = None
        self._mode = _IDLE
        self._record_guard(
            "containment",
            f"aborted at deadline with {job.remaining:.3f}us unexecuted",
            job.name,
        )
        self._record_miss(job, None, containment="abort")
        self._push_release(job.task, job.next_release, job.index + 1)
        if self._rec_on:
            self._recorder.event(self.now, "abort", job.name)

    def _record_miss(
        self,
        job: Job,
        completion: Optional[float],
        containment: str = "run-to-completion",
    ) -> None:
        miss = DeadlineMiss(
            job_name=job.name,
            task_name=job.task.name,
            release_time=job.release_time,
            deadline=job.absolute_deadline,
            completion_time=completion,
            containment=containment,
        )
        self._misses.append(miss)
        self._task_stats[job.task.name].deadline_misses += 1
        if self._rec_on:
            self._recorder.event(
                self.now, "miss", f"{job.name}:{containment}"
            )
        if self._on_miss == "raise":
            raise DeadlineMissError(
                job=job,
                deadline=job.absolute_deadline,
                completion=completion,
            )

    # ------------------------------------------------------------------ #
    # Scheduler invocation and decision application                        #
    # ------------------------------------------------------------------ #
    def _invoke_scheduler(self, event: SchedEvent) -> None:
        """Run one scheduler pass and apply its decision.

        Each branch that applies a decision also names its kind for the
        per-decision obs counters, so exact counting costs a local store
        rather than a second classification of the decision.
        """
        obs_live = self._obs_live
        if obs_live:
            _t0 = perf_counter()
        if not self._free_passes:
            overhead = self._overhead
            if self._injecting:
                self._faults.advance_clock(self.now)
                overhead += self._faults.overhead_spike()
            if overhead > 0.0:
                self._consume_overhead(overhead)
        decision = self._schedule_fn(self, event)
        if decision is None:
            decision = NO_CHANGE

        # Pending-restore bookkeeping: a new restore replaces the old one; a
        # decision that actually changes the schedule (dispatch, speed, or
        # sleep) cancels it; a pure no-change decision preserves it.
        speed_ctrl = self._speed_ctrl
        new_job, target, sleep, restore_at, restore_target = decision
        keeps_active = new_job is KEEP
        if restore_at is not None:
            speed_ctrl.arm_restore(restore_at, restore_target)
        elif speed_ctrl.restore_at is not None and (
            sleep is not None or target is not None or not keeps_active
        ):
            speed_ctrl.cancel_restore()

        if sleep is not None:
            kind = "sched.decisions.sleep"
            if self.active_job is not None:
                raise SimulationError(
                    "scheduler requested power-down with an active job"
                )
            if sleep.start_at is not None and sleep.start_at > self.now + _TIME_EPS:
                self._mode = _IDLE
                self._sleep_ctrl.defer(sleep.start_at, sleep.until)
            else:
                self._enter_sleep(sleep.until)
        else:
            sleep_ctrl = self._sleep_ctrl
            if sleep_ctrl.pending_at is not None:
                sleep_ctrl.clear_pending()

            if keeps_active:
                kind = "sched.decisions.no_change"
            else:
                kind = (
                    "sched.decisions.idle" if new_job is None
                    else "sched.decisions.dispatch"
                )
                if new_job is not self.active_job:
                    old = self.active_job
                    if (
                        old is not None
                        and old.completion_time is None
                        and not any(entry[2] is old for entry in self.run_queue._heap)
                    ):
                        # A scheduler must park the preempted job in the run
                        # queue itself (paper L8–L10); silently dropping it
                        # would lose its remaining work.
                        raise SimulationError(
                            f"decision replaced unfinished job {old.name} "
                            "without requeueing it"
                        )
                    if new_job is not None:
                        if new_job.start_time is None:
                            new_job.start_time = self.now
                        self._context_switches += 1
                        if self._rec_on:
                            self._recorder.event(self.now, "dispatch", new_job.name)
                    self.active_job = new_job
            self._mode = _RUNNING if self.active_job is not None else _IDLE

            if target is not None:
                kind = "sched.decisions.speed"
                speed_ctrl.set_target(self.now, target)

        counts = self._obs_counts
        if counts is not None:
            self._obs_events[event] += 1
            counts[kind] += 1
            if obs_live:
                acc = self._obs_phase["dispatch"]
                acc[0] += perf_counter() - _t0
                acc[1] += 1.0

    def _consume_overhead(self, overhead: float) -> None:
        """Charge one scheduler invocation's processor time.

        The active job makes no progress while the scheduler runs; energy
        is charged at active power along the prevailing speed profile.
        """
        end = min(self.now + overhead, self.horizon)
        dt = end - self.now
        if dt <= 0:
            return
        speed_ctrl = self._speed_ctrl
        ramp = speed_ctrl.ramp
        if ramp is not None and self.now < ramp.end_time - _TIME_EPS:
            s0 = ramp.speed_at(self.now)
            s1 = ramp.speed_at(end)
            ramp_end = min(end, ramp.end_time)
            self._acct.scheduler_ramp(s0, s1, ramp_end - self.now)
            if end > ramp_end:
                self._acct.scheduler_constant(s1, end - ramp_end)
            speed_ctrl.finish_ramp_if_past(end)
        else:
            s0 = s1 = speed_ctrl.speed
            self._acct.scheduler_constant(speed_ctrl.speed, dt)
        if self._rec_on:
            self._recorder.segment(self.now, end, "sched", None, None, s0, s1)
        self.now = end

    # ------------------------------------------------------------------ #
    # Wrap-up                                                              #
    # ------------------------------------------------------------------ #
    def _finalize(self) -> SimulationResult:
        # Jobs still pending at the horizon: count a miss if their deadline
        # already passed (they can never make it).
        leftovers = list(self.run_queue.jobs())
        if self.active_job is not None:
            leftovers.append(self.active_job)
        for job in leftovers:
            if job.absolute_deadline < self.horizon - _TIME_EPS:
                self._record_miss(job, None)
        return SimulationResult(
            scheduler=self.scheduler.name,
            taskset=self.taskset.name,
            duration=self.horizon,
            energy=self._acct.energy,
            task_stats=self._task_stats,
            deadline_misses=self._misses,
            context_switches=self._context_switches,
            preemptions=self._preemptions,
            speed_changes=self._speed_ctrl.changes,
            sleep_entries=self._sleep_ctrl.entries,
            jobs_completed=self._jobs_completed,
            speed_residency=self._acct.speed_residency,
            trace=self._recorder.trace,
            fault_events=list(self._faults.events) if self._faults is not None else [],
            guard_activations=list(self._guard_activations),
        )

    def _flush_obs(self, run_t0: float) -> None:
        """Fold the run's local accumulators into the obs registry.

        The engine batches phase times and counts in plain dicts while
        running and hands them to the (locked) registry exactly once, so
        instrumentation cost stays in the accumulators, not in lock
        traffic.  Counters (passes, decisions, releases, boundary
        reasons) were kept on every iteration and are exported as they
        stand.  Phase times and span counts were taken only on sampled
        "live" iterations, so they are scaled back up by the sampling
        ratio, minus the one-time setup/INIT snapshot, which was timed
        live outside the loop and must stay unscaled.  At ``sample=1``
        (``lpfps profile``) the factor is 1.

        Exported span self-times tile the event loop: ``dispatch`` is
        reported exclusive of the release scans schedulers trigger, and
        ``boundary_handle`` exclusive of both the dispatches and the
        power-down work nested inside it.  ``kernel.run`` is recorded
        last, timed from *run_t0* to the end of the flush, so the flush's
        own registry traffic counts as run self-time, not as a hole.
        """
        obs = self._obs
        phase = self._obs_phase
        init_phase = self._obs_init_phase
        period = self._obs_period
        sampled = self._obs_sampled_iters
        if sampled:
            # Live iterations reset the countdown to period-1; each
            # non-live one decrements it, so the remainder reconstructs
            # the exact iteration count without a per-iteration counter.
            total_iters = (
                sampled + (sampled - 1) * (period - 1)
                + (period - 1 - self._obs_iter)
            )
            factor = total_iters / sampled
        else:
            total_iters = 0
            factor = 1.0

        def scaled(name: str) -> Tuple[float, int]:
            total_s, count = phase[name]
            init_s, init_n = init_phase[name]
            return (
                init_s + (total_s - init_s) * factor,
                int(round(init_n + (count - init_n) * factor)),
            )

        scan_t, scan_n = scaled("scan")
        advance_t, advance_n = scaled("advance")
        ramp_t, ramp_n = scaled("ramp")
        handle_t, handle_n = scaled("handle")
        dispatch_t, dispatch_n = scaled("dispatch")
        release_t, release_n = scaled("release")
        sleep_t, sleep_n = scaled("sleep")
        loop_t = scan_t + advance_t + ramp_t + handle_t
        for name, total_s, count, self_s in (
            ("kernel.boundary_scan", scan_t, scan_n, scan_t),
            ("kernel.advance", advance_t, advance_n, advance_t),
            ("kernel.speed_ramp", ramp_t, ramp_n, ramp_t),
            (
                "kernel.boundary_handle",
                handle_t,
                handle_n,
                max(0.0, handle_t - dispatch_t - sleep_t),
            ),
            (
                "kernel.dispatch",
                dispatch_t,
                dispatch_n,
                max(0.0, dispatch_t - release_t),
            ),
            ("kernel.release_scan", release_t, release_n, release_t),
            ("kernel.sleep", sleep_t, sleep_n, sleep_t),
        ):
            if count:
                obs.span_add(name, total_s, count, self_s=self_s)
        for event, value in self._obs_events.items():
            if value:
                obs.count(_EVENT_COUNT_KEYS[event], value)
        for name, value in self._obs_counts.items():
            if value:
                obs.count(name, value)
        for reason, value in self._obs_boundary.items():
            obs.count("kernel.boundary." + reason, value)
        obs.count("kernel.iterations", total_iters)
        obs.count("kernel.sampled_iterations", sampled)
        obs.gauge("kernel.sample_period", float(period))
        wall_s = perf_counter() - run_t0
        obs.span_add("kernel.run", wall_s, 1, self_s=max(0.0, wall_s - loop_t))


def simulate(
    taskset: TaskSet,
    scheduler,
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(taskset, scheduler, **kwargs).run()
