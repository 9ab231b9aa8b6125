"""Variable-voltage processor, power, and DVS-transition models."""

from .._lazy import lazy_exports

__all__ = [
    "FrequencyGrid",
    "PowerModel",
    "ProcessorSpec",
    "TransitionModel",
    "INSTANT",
    "AlphaPowerLawVoltage",
    "LinearVoltage",
    "FixedVoltage",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".frequency": ("FrequencyGrid",),
        ".model": ("PowerModel",),
        ".processor": ("ProcessorSpec",),
        ".transitions": ("INSTANT", "TransitionModel"),
        ".voltage": ("AlphaPowerLawVoltage", "FixedVoltage", "LinearVoltage"),
    },
)
