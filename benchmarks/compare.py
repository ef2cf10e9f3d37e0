"""Diff ``BENCH_<suite>.json`` documents against checked-in baselines.

Usage::

    python benchmarks/compare.py [--out benchmarks/out] \\
        [--baselines benchmarks/baselines] [--tolerance 0.25] [--strict]

For every suite present in both directories, prints one line per
benchmark case with the wall-clock and peak-memory delta versus the
baseline record.  Two gates apply:

* **counters: exact.**  The deterministic ``counters`` of a record
  (candidate pairs, sweep queries, queries, ...) must equal its
  baseline's; any difference exits 1.  So does a case recorded twice in
  one suite, in either directory: records are matched by case, and a
  second copy would hide the first.
* **wall clock: soft.**  Regressions beyond the tolerance are flagged
  with ``!!`` and counted, but the exit status stays 0 unless
  ``--strict`` is given — wall-clock on shared CI runners is too noisy
  for a hard fail, and the artifact upload preserves the numbers for
  human review.

Baselines are refreshed by copying ``benchmarks/out/BENCH_*.json`` into
``benchmarks/baselines/`` after a benchmark run at the same scale
(``REPRO_BENCH_SCALE=small`` for the checked-in set) and committing the
result.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path


def load_suites(directory: Path) -> dict[str, dict]:
    """``{suite name: document}`` for every BENCH_*.json in a directory."""
    suites: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"  skipping {path.name}: {exc}", file=sys.stderr)
            continue
        suites[doc.get("suite", path.stem[len("BENCH_"):])] = doc
    return suites


def index_records(doc: dict) -> dict[str, dict]:
    return {r["case"]: r for r in doc.get("records", [])}


def repeated_cases(doc: dict) -> list[str]:
    """The cases a document records more than once, in first-seen order."""
    counts = Counter(r["case"] for r in doc.get("records", []))
    return [case for case, n in counts.items() if n > 1]


def counter_diff(new: dict, old: dict) -> dict[str, tuple]:
    """``{counter: (baseline, fresh)}`` for every counter that differs."""
    return {
        name: (old.get(name), new.get(name))
        for name in sorted(set(new) | set(old))
        if new.get(name) != old.get(name)
    }


def fmt_delta(new: float | None, old: float | None) -> tuple[str, float | None]:
    """Human delta string plus the relative change (None if undefined)."""
    if new is None or old is None or old <= 0:
        return "n/a", None
    rel = (new - old) / old
    return f"{rel:+7.1%}", rel


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=here / "out",
                        help="directory holding fresh BENCH_*.json files")
    parser.add_argument("--baselines", type=Path, default=here / "baselines",
                        help="directory holding checked-in baselines")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative wall-clock slowdown that counts as "
                             "a regression (default 0.25 = 25%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when regressions are found")
    args = parser.parse_args(argv)

    fresh = load_suites(args.out)
    base = load_suites(args.baselines)
    repeated = [
        (where, suite, case)
        for where, suites in ((args.out, fresh), (args.baselines, base))
        for suite, doc in sorted(suites.items())
        for case in repeated_cases(doc)
    ]
    for where, suite, case in repeated:
        print(f"{where}: suite {suite} records case {case} more than once")
    if repeated:
        print("exact gate: every case must be recorded once per suite")
        return 1
    if not fresh:
        print(f"no BENCH_*.json documents under {args.out}")
        return 0
    if not base:
        print(f"no baselines under {args.baselines}; nothing to compare")
        return 0

    regressions = 0
    counter_mismatches = 0
    compared = 0
    for suite in sorted(fresh):
        if suite not in base:
            print(f"suite {suite}: no baseline (new suite?)")
            continue
        fresh_scale = fresh[suite].get("scale")
        base_scale = base[suite].get("scale")
        if fresh_scale != base_scale:
            print(
                f"suite {suite}: scale mismatch "
                f"({fresh_scale} vs baseline {base_scale}) — skipped"
            )
            continue
        print(f"suite {suite} (scale {fresh_scale}):")
        baseline_records = index_records(base[suite])
        for record in fresh[suite].get("records", []):
            case = record["case"]
            old = baseline_records.get(case)
            if old is None:
                print(f"  {case:<44} new case, no baseline")
                continue
            compared += 1
            wall_str, wall_rel = fmt_delta(
                record.get("wall_s"), old.get("wall_s")
            )
            peak_str, _ = fmt_delta(record.get("peak_mb"), old.get("peak_mb"))
            flag = ""
            if wall_rel is not None and wall_rel > args.tolerance:
                flag = "  !! wall regression"
                regressions += 1
            print(
                f"  {case:<44} wall {record.get('wall_s', 0.0):9.4f}s "
                f"({wall_str})  peak ({peak_str}){flag}"
            )
            moved = counter_diff(
                record.get("counters") or {}, old.get("counters") or {}
            )
            if moved:
                counter_mismatches += 1
                print(f"  {'':<44} !! counters moved (baseline, fresh): {moved}")
    print(
        f"\ncompared {compared} cases; {counter_mismatches} counter "
        f"mismatch(es); {regressions} wall-clock regression(s) beyond "
        f"{args.tolerance:.0%}"
    )
    if counter_mismatches:
        print("exact gate: counters differ from the baselines")
        return 1
    if regressions and args.strict:
        return 1
    if regressions:
        print("soft gate: not failing the build (pass --strict to enforce)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
