"""Inventory of the environment variables the package reads.

Every ``REPRO_*`` string constant in ``src/repro`` is a knob a user can
set.  The inventory is pinned here and documented in the README's
"Environment variables" table, so a new knob shows up in review instead
of slipping in through a default.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

KNOB = re.compile(r"REPRO_[A-Z_]+")

KNOBS = {
    "REPRO_CACHE_DIR",
    "REPRO_PAIR_INDEX",
    "REPRO_PAIR_REUSE",
    "REPRO_TELEMETRY",
}


def _knobs_in_source() -> dict[str, set[str]]:
    """``{knob: {module paths}}`` of every ``REPRO_*`` string constant."""
    root = Path(repro.__file__).parent
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and KNOB.fullmatch(node.value)
            ):
                found.setdefault(node.value, set()).add(
                    str(path.relative_to(root))
                )
    return found


def test_knob_inventory_is_pinned():
    found = _knobs_in_source()
    assert set(found) == KNOBS, {
        name: sorted(paths) for name, paths in found.items()
        if name not in KNOBS
    }


def test_every_knob_is_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    rows = {
        match.group(1)
        for match in re.finditer(r"^\| `(REPRO_[A-Z_]+)`", section, re.M)
    }
    assert rows == KNOBS
