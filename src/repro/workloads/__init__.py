"""Application workloads: the paper's four case studies and examples."""

from .._lazy import lazy_exports

__all__ = [
    "Workload",
    "avionics_taskset",
    "avionics_workload",
    "ins_taskset",
    "ins_workload",
    "flight_control_taskset",
    "flight_control_workload",
    "cnc_taskset",
    "cnc_workload",
    "example_taskset",
    "example_workload",
    "BcetRatio",
    "BCET_WCET_RATIOS",
    "ratios_table",
    "mean_ratio",
    "get_workload",
    "available_workloads",
    "table2_workloads",
    "TABLE2_NAMES",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".avionics": ("avionics_taskset", "avionics_workload"),
        ".base": ("Workload",),
        ".bcet_data": ("BCET_WCET_RATIOS", "BcetRatio", "mean_ratio", "ratios_table"),
        ".cnc": ("cnc_taskset", "cnc_workload"),
        ".example_dac99": ("example_taskset", "example_workload"),
        ".flight_control": ("flight_control_taskset", "flight_control_workload"),
        ".ins": ("ins_taskset", "ins_workload"),
        ".registry": (
            "TABLE2_NAMES",
            "available_workloads",
            "get_workload",
            "table2_workloads",
        ),
    },
)
