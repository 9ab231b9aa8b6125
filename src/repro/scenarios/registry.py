"""Bundled scenario pack library: name-based lookup over ``packs/``.

Every ``*.json`` document under :data:`PACKS_DIR` is a scenario pack,
addressed by its file stem (which must match the document's ``name``
field — :func:`load_pack` enforces the agreement so a pack can never be
served under a name its fingerprint does not carry).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List

from ..errors import ConfigurationError
from .schema import Scenario, load_scenario

#: Directory holding the bundled scenario pack documents.
PACKS_DIR = Path(__file__).resolve().parent / "packs"


def available_packs() -> List[str]:
    """Bundled pack names, sorted."""
    return sorted(path.stem for path in PACKS_DIR.glob("*.json"))


def pack_path(name: str) -> Path:
    """Filesystem path of the bundled pack *name*.

    Only a listed name resolves: a name is a request field, and one like
    ``../../x`` must not reach other JSON files on the host.
    """
    if name not in available_packs():
        raise ConfigurationError(
            f"unknown scenario pack {name!r}; "
            f"available: {', '.join(available_packs())}"
        )
    return PACKS_DIR / f"{name}.json"


def load_pack(name: str) -> Scenario:
    """Parse and normalise the bundled pack *name*."""
    scenario = load_scenario(pack_path(name))
    if scenario.name != name:
        raise ConfigurationError(
            f"pack file {name}.json declares name {scenario.name!r}; "
            "the file stem and the document name must agree"
        )
    return dataclasses.replace(scenario, pack=name)
