"""Output checks that feed ``failed``: pinned digests, else structure.

Pinned seeds (``digests.json``) compare a sha256 of every output with
the digest recorded for that seed: every result's series arrays
(``suite2d``, ``deep3d``), every trace artifact (``traces``) and the
report's standard output (``report-cli``).  A seedless workload has one
pinned table for every seed.  Other seeds get structural checks only:
each series has one entry per snapshot and every value is finite.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from suites import SEEDLESS

DIGESTS = Path(__file__).with_name("digests.json")


def arrays_digest(arrays) -> str:
    """sha256 over each array's name, dtype, shape and bytes, by name."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def series_ok(arrays, nsnapshots: int) -> bool:
    """One entry per snapshot in every series, and every value finite."""
    return bool(arrays) and all(
        len(array) == nsnapshots
        and (
            not np.issubdtype(np.asarray(array).dtype, np.floating)
            or bool(np.isfinite(array).all())
        )
        for array in arrays.values()
    )


def seed_slot(workload: str, seed: int) -> str:
    return "any" if workload in SEEDLESS else str(seed)


def load_pinned(workload: str, seed: int, path: Path = DIGESTS) -> dict | None:
    """``{operation key: digest}`` pinned for this seed, or ``None``."""
    table = json.loads(Path(path).read_text(encoding="utf-8"))
    return table.get(workload, {}).get(seed_slot(workload, seed))


def verify(key: str, digest: str | None, pinned: dict | None,
           structural: bool) -> bool:
    """Whether one output passes.

    A structural failure always fails.  On a pinned seed the digest must
    also equal the pinned one; an operation missing from the pinned
    table fails too, so a pinned check can never pass vacuously.
    """
    if not structural:
        return False
    if pinned is None:
        return True
    return digest is not None and pinned.get(key) == digest


def pin(workload: str, seed: int, ops: list[dict], path: Path = DIGESTS) -> int:
    """Record ``ops``' digests as the pinned ones for this seed.

    Refuses outputs that fail their structural check, and operations
    whose repeated executions disagree.  Returns the number pinned.
    """
    entry: dict[str, str] = {}
    for op in ops:
        if not op["structural"] or op["digest"] is None:
            raise ValueError(f"{op['label']}: output fails its checks")
        if entry.setdefault(op["key"], op["digest"]) != op["digest"]:
            raise ValueError(f"{op['label']}: output differs between passes")
    table = json.loads(Path(path).read_text(encoding="utf-8"))
    table.setdefault(workload, {})[seed_slot(workload, seed)] = dict(
        sorted(entry.items())
    )
    Path(path).write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(entry)
