"""Execution-time models and synthetic task-set generation.

Execution-time models
---------------------
The paper has no measured execution-time traces, so §4 draws each job's
demand from a Gaussian with

    m     = (BCET + WCET) / 2                      (Eq. 4)
    sigma = (WCET - BCET) / 6                      (Eq. 5)

and clamps the draw so it never exceeds the WCET (footnote 5).  We implement
that model verbatim (clamping below at BCET too, so the "best case" label
stays truthful — the Gaussian leaks below BCET as often as above WCET), plus
uniform, bimodal, and constant models used by the ablation studies.

Task-set generation
-------------------
Property tests and ablations need many schedulable synthetic task sets;
:func:`uunifast` implements the standard unbiased utilisation-splitting
algorithm (Bini & Buttazzo) and :func:`random_taskset` combines it with
log-uniform periods.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Protocol, Sequence

from ..errors import ConfigurationError
from .task import Task, TaskSet


class ExecutionTimeModel(Protocol):
    """Draws the actual demand of one job of *task*."""

    def sample(self, task: Task, rng: random.Random) -> float:
        """Return a demand in ``[task.bcet, task.wcet]`` (full-speed µs)."""
        ...  # pragma: no cover - protocol


class WcetModel:
    """Every job takes exactly its WCET (Figure 2(a) of the paper)."""

    def sample(self, task: Task, rng: random.Random) -> float:
        return task.wcet

    def __repr__(self) -> str:  # pragma: no cover
        return "WcetModel()"


class BcetModel:
    """Every job takes exactly its BCET — an optimistic bound."""

    def sample(self, task: Task, rng: random.Random) -> float:
        return task.bcet

    def __repr__(self) -> str:  # pragma: no cover
        return "BcetModel()"


class GaussianModel:
    """The paper's clamped Gaussian (Eqs. 4 and 5).

    With ``WCET = m + 3*sigma`` about 99.7 % of draws land inside
    ``[BCET, WCET]`` before clamping, as footnote 5 notes.
    """

    def sample(self, task: Task, rng: random.Random) -> float:
        mean = (task.bcet + task.wcet) / 2.0
        sigma = (task.wcet - task.bcet) / 6.0
        if sigma == 0.0:
            return task.wcet
        value = rng.gauss(mean, sigma)
        return min(max(value, task.bcet), task.wcet)

    def __repr__(self) -> str:  # pragma: no cover
        return "GaussianModel()"


class UniformModel:
    """Demand uniform over ``[BCET, WCET]``."""

    def sample(self, task: Task, rng: random.Random) -> float:
        return rng.uniform(task.bcet, task.wcet)

    def __repr__(self) -> str:  # pragma: no cover
        return "UniformModel()"


class BimodalModel:
    """Demand near BCET with probability *p_short*, else near WCET.

    Models control applications with a cheap common path and an expensive
    rare path; exercises LPFPS's slack reclamation at its extremes.
    """

    def __init__(self, p_short: float = 0.8, spread: float = 0.05):
        if not 0 <= p_short <= 1:
            raise ConfigurationError(f"p_short must be in [0,1], got {p_short}")
        if not 0 <= spread <= 0.5:
            raise ConfigurationError(f"spread must be in [0, 0.5], got {spread}")
        self.p_short = p_short
        self.spread = spread

    def sample(self, task: Task, rng: random.Random) -> float:
        span = task.wcet - task.bcet
        if span == 0.0:
            return task.wcet
        if rng.random() < self.p_short:
            value = task.bcet + rng.uniform(0.0, self.spread) * span
        else:
            value = task.wcet - rng.uniform(0.0, self.spread) * span
        return min(max(value, task.bcet), task.wcet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BimodalModel(p_short={self.p_short}, spread={self.spread})"


class MarkovModel:
    """Two-state (quiet/loaded) Markov-modulated demand.

    Real control software rarely draws execution times independently: a
    plant excursion keeps the controller on its expensive path for many
    consecutive periods.  This model switches a per-task hidden state
    between *quiet* (demand near BCET) and *loaded* (demand near WCET) with
    configurable persistence, producing the correlated bursts that stress
    slack-reclaiming schedulers far harder than i.i.d. draws.

    Parameters
    ----------
    p_stay_quiet / p_stay_loaded:
        Self-transition probabilities of the two states (persistence).
    spread:
        Relative width of the uniform band around each state's demand.
    """

    def __init__(
        self,
        p_stay_quiet: float = 0.95,
        p_stay_loaded: float = 0.85,
        spread: float = 0.1,
    ):
        for name, p in (("p_stay_quiet", p_stay_quiet),
                        ("p_stay_loaded", p_stay_loaded)):
            if not 0 <= p <= 1:
                raise ConfigurationError(f"{name} must be in [0,1], got {p}")
        if not 0 <= spread <= 0.5:
            raise ConfigurationError(f"spread must be in [0, 0.5], got {spread}")
        self.p_stay_quiet = p_stay_quiet
        self.p_stay_loaded = p_stay_loaded
        self.spread = spread
        self._loaded: dict = {}

    def sample(self, task: Task, rng: random.Random) -> float:
        span = task.wcet - task.bcet
        if span == 0.0:
            return task.wcet
        loaded = self._loaded.get(task.name, False)
        stay = self.p_stay_loaded if loaded else self.p_stay_quiet
        if rng.random() >= stay:
            loaded = not loaded
        self._loaded[task.name] = loaded
        if loaded:
            value = task.wcet - rng.uniform(0.0, self.spread) * span
        else:
            value = task.bcet + rng.uniform(0.0, self.spread) * span
        return min(max(value, task.bcet), task.wcet)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MarkovModel(p_stay_quiet={self.p_stay_quiet}, "
            f"p_stay_loaded={self.p_stay_loaded}, spread={self.spread})"
        )


def uunifast(n: int, total_utilization: float, rng: random.Random) -> List[float]:
    """Split *total_utilization* into *n* unbiased shares (Bini & Buttazzo)."""
    if n < 1:
        raise ConfigurationError(f"need at least one task, got n={n}")
    if total_utilization <= 0:
        raise ConfigurationError(
            f"total utilization must be > 0, got {total_utilization}"
        )
    utilizations = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def log_uniform_periods(
    n: int,
    rng: random.Random,
    lo: float = 1_000.0,
    hi: float = 1_000_000.0,
    granularity: float = 100.0,
) -> List[float]:
    """Periods log-uniform over ``[lo, hi]`` µs, rounded to *granularity*.

    Rounding keeps hyperperiods finite for simulation and mirrors the
    millisecond-ish granularity of the paper's workloads.
    """
    if lo <= 0 or hi <= lo:
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    periods = []
    for _ in range(n):
        t = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        t = max(granularity, round(t / granularity) * granularity)
        periods.append(t)
    return periods


def random_taskset(
    n: int,
    total_utilization: float,
    rng: random.Random,
    name: str = "synthetic",
    bcet_ratio: float = 1.0,
    period_lo: float = 1_000.0,
    period_hi: float = 1_000_000.0,
    min_wcet: float = 1.0,
) -> TaskSet:
    """Generate a random implicit-deadline task set.

    Utilisations come from :func:`uunifast`, periods are log-uniform, and
    each task's BCET is ``bcet_ratio * wcet``.  Tasks whose WCET would fall
    below *min_wcet* are clamped (their utilisation rises slightly; callers
    that need the exact total should check ``taskset.utilization``).
    """
    utils = uunifast(n, total_utilization, rng)
    periods = log_uniform_periods(n, rng, lo=period_lo, hi=period_hi)
    tasks = []
    for i, (u, t) in enumerate(zip(utils, periods)):
        wcet = max(min_wcet, u * t)
        wcet = min(wcet, t)  # never exceed the deadline
        tasks.append(
            Task(
                name=f"t{i}",
                wcet=wcet,
                period=t,
                bcet=max(min_wcet * bcet_ratio, bcet_ratio * wcet),
            )
        )
    return TaskSet(tasks, name=name)


def draw_job_demands(
    taskset: TaskSet,
    model: ExecutionTimeModel,
    count_per_task: int,
    seed: int = 0,
) -> dict:
    """Pre-draw *count_per_task* demands for each task (for offline analyses).

    Returns ``{task name: [demand, ...]}`` with a deterministic per-call RNG.
    """
    rng = random.Random(seed)
    return {
        task.name: [model.sample(task, rng) for _ in range(count_per_task)]
        for task in taskset
    }
