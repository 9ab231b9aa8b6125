"""Fault injection and graceful degradation for the LPFPS reproduction.

The paper's guarantees hold *given* its model: actual demand within
``[BCET, WCET]``, releases exactly on period boundaries, a wake-up timer
that fires at ``t_a - t_wakeup``, DVS writes that take effect at the
datasheet ``rho``, and a free scheduler.  This package breaks each of
those assumptions on purpose (:mod:`repro.faults.injectors`), contains the
damage with kernel-level guards (:mod:`repro.faults.guards`), and sweeps
the dose-response (:mod:`repro.faults.campaign`).

The bridge to the engine is :class:`~repro.faults.layer.FaultLayer`,
passed as ``simulate(..., faults=layer)``.
"""

from .._lazy import lazy_exports

__all__ = [
    "FaultEvent",
    "Injector",
    "WcetOverrunInjector",
    "ReleaseJitterInjector",
    "WakeTimerErrorInjector",
    "SpeedTransitionFaultInjector",
    "OverheadSpikeInjector",
    "ScriptedOverrun",
    "available_injectors",
    "make_injector",
    "GuardConfig",
    "GuardActivation",
    "MISS_POLICIES",
    "FaultLayer",
    "CampaignResult",
    "PolicyOutcome",
    "run_campaign",
    "apply_cell_chaos",
    "flaky_transport",
    "kill_worker",
    "slow_cell",
    "tear_file",
    "with_chaos",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".campaign": ("CampaignResult", "PolicyOutcome", "run_campaign"),
        ".chaos": (
            "apply_cell_chaos",
            "flaky_transport",
            "kill_worker",
            "slow_cell",
            "tear_file",
            "with_chaos",
        ),
        ".guards": ("MISS_POLICIES", "GuardActivation", "GuardConfig"),
        ".injector": ("FaultEvent", "Injector"),
        ".injectors": (
            "OverheadSpikeInjector",
            "ReleaseJitterInjector",
            "ScriptedOverrun",
            "SpeedTransitionFaultInjector",
            "WakeTimerErrorInjector",
            "WcetOverrunInjector",
            "available_injectors",
            "make_injector",
        ),
        ".layer": ("FaultLayer",),
    },
)
