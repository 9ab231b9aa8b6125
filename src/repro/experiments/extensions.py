"""Extension experiments — EXP-A5 through EXP-A7 of DESIGN.md.

These go beyond the paper's plotted results to quantify claims it makes in
prose (§2.2's disqualification of predictive DVS, §5's heuristic-vs-optimal
scheduler-cost trade-off) and to position LPFPS against the offline-optimal
energy bound.

* **A5 scheduler-overhead trade-off** (§5 "future work"): the optimal
  ratio (Eq. 2) computes a square root in the scheduler's hot path.  We
  charge both policies a per-invocation overhead and sweep it: the
  crossover where the optimal policy's extra cost erases its power
  advantage is the paper's promised trade-off analysis.
* **A6 oracle gap**: the YDS critical-interval schedule is the provable
  energy minimum for the WCET job set; the gap between LPFPS and the YDS
  oracle (and the oracle's own blindness to execution-time variation)
  bounds how much any WCET-budgeted policy leaves on the table.
* **A7 predictive failure** (§2.2): Weiser-style PAST interval prediction
  saves power on the paper's workloads — and misses hard deadlines while
  doing so, which is why it "cannot be applied to real-time systems".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.lpfps import LpfpsScheduler
from ..power.processor import ProcessorSpec
from ..schedulers.fps import FpsScheduler
from ..schedulers.interval import PastScheduler
from ..schedulers.yds import profile_for_taskset
from ..sim.engine import simulate
from ..tasks.generation import BimodalModel, GaussianModel
from ..viz.tables import render_table
from ..workloads.registry import get_workload
from .runner import (
    RunSpec, compare_schedulers, measurement_duration, run_many, seed_mean,
)


# ------------------------------------------------------------------ #
# A5: scheduler-overhead trade-off (heuristic vs optimal, section 5)   #
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class OverheadPoint:
    """Powers of both policies at one per-invocation overhead."""

    overhead: float        #: µs charged per scheduler invocation
    heuristic_power: float
    optimal_power: float
    heuristic_misses: int
    optimal_misses: int


@dataclass(frozen=True)
class OverheadTradeoffResult:
    """EXP-A5 outcome."""

    application: str
    bcet_ratio: float
    #: extra µs the optimal policy pays per invocation (sqrt + divides).
    optimal_extra_cost: float
    points: Tuple[OverheadPoint, ...]

    def crossover(self) -> Optional[float]:
        """Smallest base overhead at which the heuristic wins, if any."""
        for p in self.points:
            if p.heuristic_power < p.optimal_power:
                return p.overhead
        return None

    def render(self) -> str:
        """Aligned table of the sweep."""
        rows = [
            (
                p.overhead,
                round(p.heuristic_power, 4),
                round(p.optimal_power, 4),
                p.heuristic_misses,
                p.optimal_misses,
            )
            for p in self.points
        ]
        cross = self.crossover()
        note = (
            f"heuristic overtakes at base overhead {cross:g} us"
            if cross is not None
            else "optimal policy wins over the whole sweep"
        )
        return (
            render_table(
                [
                    "base overhead (us)",
                    "LPFPS-heu power",
                    "LPFPS-opt power",
                    "heu misses",
                    "opt misses",
                ],
                rows,
                title=(
                    f"A5: scheduler-overhead trade-off "
                    f"[{self.application}, BCET/WCET={self.bcet_ratio}, "
                    f"optimal pays +{self.optimal_extra_cost:g} us/invocation]"
                ),
            )
            + f"\n{note}"
        )


def run_overhead_tradeoff(
    application: str = "cnc",
    bcet_ratio: float = 0.5,
    overheads: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0),
    optimal_extra_cost: float = 1.0,
    seeds: Sequence[int] = (1, 2),
) -> OverheadTradeoffResult:
    """EXP-A5: sweep the per-invocation scheduler cost.

    The heuristic policy pays ``overhead`` µs per invocation; the optimal
    policy pays ``overhead + optimal_extra_cost`` (its Eq.-2 arithmetic).
    """
    taskset = get_workload(application).prioritized().with_bcet_ratio(bcet_ratio)
    duration = measurement_duration(taskset)
    costs = {"lpfps": 0.0, "lpfps-opt": optimal_extra_cost}
    specs = [
        RunSpec(
            taskset=taskset, scheduler=policy, seed=seed,
            execution_model=GaussianModel(), duration=duration, on_miss="record",
            scheduler_overhead=overhead + extra,
        )
        for overhead in overheads
        for policy, extra in costs.items()
        for seed in seeds
    ]
    results = iter(run_many(specs))
    points: List[OverheadPoint] = []
    for overhead in overheads:
        heu = [next(results) for _ in seeds]
        opt = [next(results) for _ in seeds]
        points.append(
            OverheadPoint(
                overhead=overhead,
                heuristic_power=seed_mean([r.average_power for r in heu]),
                optimal_power=seed_mean([r.average_power for r in opt]),
                heuristic_misses=sum(len(r.deadline_misses) for r in heu),
                optimal_misses=sum(len(r.deadline_misses) for r in opt),
            )
        )
    return OverheadTradeoffResult(
        application=application,
        bcet_ratio=bcet_ratio,
        optimal_extra_cost=optimal_extra_cost,
        points=tuple(points),
    )


# ------------------------------------------------------------------ #
# A6: gap to the offline-optimal (YDS) energy                          #
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class OracleGapResult:
    """EXP-A6 outcome: LPFPS vs the YDS oracle across variation levels."""

    application: str
    peak_intensity: float
    lower_bound_power: float  #: analytic YDS bound on the ideal processor
    rows: Tuple[Tuple[float, float, float, float], ...]
    #: (bcet_ratio, fps_power, lpfps_power, yds_power)

    def render(self) -> str:
        """Aligned table of the comparison."""
        return render_table(
            ["BCET/WCET", "FPS", "LPFPS", "YDS oracle"],
            [
                (r, round(f, 4), round(l, 4), round(y, 4))
                for r, f, l, y in self.rows
            ],
            title=(
                f"A6: oracle gap [{self.application}] — analytic YDS lower "
                f"bound {self.lower_bound_power:.4f} (ideal processor, WCET "
                f"demands); peak intensity {self.peak_intensity:.3f}"
            ),
        )


def run_oracle_gap(
    application: str = "cnc",
    ratios: Sequence[float] = (0.2, 0.5, 1.0),
    seeds: Sequence[int] = (1, 2),
) -> OracleGapResult:
    """EXP-A6: compare FPS, LPFPS and the YDS oracle.

    Restricted to workloads whose hyperperiod job count fits the YDS
    O(n^3) guard (CNC, flight control, the Table-1 example).
    """
    workload = get_workload(application)
    base = workload.prioritized()
    profile = profile_for_taskset(base)
    spec = ProcessorSpec.arm8()
    bound = profile.energy_lower_bound(spec.power, base.hyperperiod) / base.hyperperiod
    duration = measurement_duration(base)
    rows = []
    for ratio in ratios:
        points = compare_schedulers(
            base.with_bcet_ratio(ratio), {"FPS": "fps", "LPFPS": "lpfps", "YDS": "yds"},
            spec=spec, execution_model=GaussianModel(), seeds=seeds, duration=duration,
        )
        rows.append(
            (ratio, *(points[name].average_power for name in ("FPS", "LPFPS", "YDS")))
        )
    return OracleGapResult(
        application=application,
        peak_intensity=profile.max_speed,
        lower_bound_power=bound,
        rows=tuple(rows),
    )


# ------------------------------------------------------------------ #
# A7: predictive interval DVS misses hard deadlines (section 2.2)      #
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class PredictiveFailureResult:
    """EXP-A7 outcome: PAST's power saving and its deadline misses."""

    application: str
    bcet_ratio: float
    fps_power: float
    past_power: float
    lpfps_power: float
    past_misses: int
    lpfps_misses: int
    jobs: int

    def render(self) -> str:
        """Aligned table plus the §2.2 conclusion."""
        table = render_table(
            ["policy", "avg power", "deadline misses", "jobs"],
            [
                ("FPS", round(self.fps_power, 4), 0, self.jobs),
                ("PAST (Weiser-style)", round(self.past_power, 4),
                 self.past_misses, self.jobs),
                ("LPFPS", round(self.lpfps_power, 4),
                 self.lpfps_misses, self.jobs),
            ],
            title=(
                f"A7: predictive DVS on a hard real-time set "
                f"[{self.application}, BCET/WCET={self.bcet_ratio}]"
            ),
        )
        return table + (
            "\nPAST trades deadline misses for power; LPFPS saves more "
            "with zero misses — section 2.2's disqualification, measured."
        )


def run_predictive_failure(
    application: str = "ins",
    bcet_ratio: float = 0.1,
    p_short: float = 0.9,
    seed: int = 1,
) -> PredictiveFailureResult:
    """EXP-A7: run PAST next to FPS and LPFPS on one workload.

    Demand is *bimodal* (most jobs near BCET, occasional WCET bursts) —
    the pattern interval prediction is worst at: PAST settles near the
    quiet demand and a WCET burst lands before the next tick can correct.
    On steady (Gaussian) demand PAST degenerates to quasi-static scaling
    and stays safe; the burst case is where §2.2's disqualification bites.
    """
    taskset = get_workload(application).prioritized().with_bcet_ratio(bcet_ratio)
    duration = measurement_duration(taskset)
    kwargs = dict(execution_model=BimodalModel(p_short=p_short),
                  duration=duration, seed=seed, on_miss="record")
    fps = simulate(taskset, FpsScheduler(), **kwargs)
    past = simulate(taskset, PastScheduler(), **kwargs)
    lpfps = simulate(taskset, LpfpsScheduler(), **kwargs)
    return PredictiveFailureResult(
        application=application,
        bcet_ratio=bcet_ratio,
        fps_power=fps.average_power,
        past_power=past.average_power,
        lpfps_power=lpfps.average_power,
        past_misses=len(past.deadline_misses),
        lpfps_misses=len(lpfps.deadline_misses),
        jobs=fps.jobs_completed,
    )
