"""Declarative scenario platform: schema, bundled packs, campaign runner.

One JSON document = one experiment: task set, processor, execution-time
model, fault plan, campaign grid, and optional weakly-hard (m,k)
constraints, strictly validated, canonically normalised, and
content-addressed (see :mod:`repro.scenarios.schema`).  Bundled packs
live under ``packs/`` and are loadable by name from the CLI
(``lpfps scenario ...``), experiments, and the service.
"""

from .._lazy import lazy_exports

__all__ = [
    "PACKS_DIR",
    "SCHEMA_ID",
    "CellOutcome",
    "Scenario",
    "ScenarioCampaign",
    "ScenarioFaults",
    "ScenarioReport",
    "available_packs",
    "load_pack",
    "load_scenario",
    "pack_path",
    "parse_scenario",
    "run_scenario",
    "scenario_specs",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".registry": ("PACKS_DIR", "available_packs", "load_pack", "pack_path"),
        ".runner": ("CellOutcome", "ScenarioReport", "run_scenario", "scenario_specs"),
        ".schema": (
            "SCHEMA_ID",
            "Scenario",
            "ScenarioCampaign",
            "ScenarioFaults",
            "load_scenario",
            "parse_scenario",
        ),
    },
)
