"""Diff the artifact bytes of result stores against a reference store.

Usage::

    python .github/scripts/diff_stores.py REFERENCE STORE [STORE ...]

Hashes every artifact file of every entry (sha256, keyed by entry key
and file name) and exits 1 unless each STORE holds exactly the
reference's entries with identical bytes.  The store hashes are the
behaviour contract: a sweep must publish the same bytes under every
telemetry mode and backend, and before and after a change that claims
to leave outputs alone.
"""

from __future__ import annotations

import hashlib
import sys

from repro.engine import ResultStore


def snapshot(root: str) -> dict[tuple[str, str], str]:
    """``{(entry key, file name): sha256}`` over a whole store."""
    store = ResultStore(root)
    return {
        (key, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
        for key, _ in store.iter_results()
        for path in sorted(store.entry_dir(key).iterdir())
        if path.is_file()
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    reference_root, *roots = argv
    reference = snapshot(reference_root)
    if not reference:
        print(f"{reference_root}: reference store is empty")
        return 1
    entries = len({key for key, _ in reference})
    diverged = 0
    for root in roots:
        differences = sorted(set(reference.items()) ^ set(snapshot(root).items()))
        if differences:
            diverged += 1
            print(f"{root}: diverges from {reference_root}: {differences[:6]}")
        else:
            print(f"{root}: bit-identical to {reference_root} ({entries} entries)")
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
