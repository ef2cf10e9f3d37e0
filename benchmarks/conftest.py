"""Shared benchmark configuration.

The benchmark suite regenerates every figure of the paper's evaluation
(the entry points of ``repro.experiments.figures``) and times the
library's computational kernels.  Figure benchmarks print the series
they produce, so the pytest output doubles as the reproduction record.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (default — minutes-level CI budget) or ``paper`` (the full
setup of section 5.1.1).

Figure and ablation benchmarks submit their replays through
:mod:`repro.engine`, so results land in the content-addressed store
(``REPRO_CACHE_DIR``, default ``~/.cache/repro``) and are shared between
benchmark files — the Nature+Fable replay timed for Figure 5 is reused
by the meta-vs-static grid.  A *re*-run of the suite therefore times the
warm-store path; ``python -m repro cache clear`` restores cold timings.

Each suite can also publish machine-readable results: call
:func:`record_bench` with a case label, wall seconds, peak MB and a
counter dict, and the session writes one ``BENCH_<suite>.json`` per
suite into ``benchmarks/out/`` (override with ``REPRO_BENCH_OUT``) so
CI can diff timings and counters across commits without scraping
stdout.  Counter dicts come from metrics-registry deltas
(:func:`repro.telemetry.counter_deltas`, see :func:`pair_counters`).
A record's wall is :func:`best_wall` of several untraced calls and its
peak :func:`traced_peak` of one more: a few-millisecond case timed once
reads a slow call on a shared host as a regression.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import APP_NAMES, paper_trace
from repro.telemetry.metrics import PAIR_COUNTER_FIELDS

#: Version stamp of the BENCH_<suite>.json document schema.
BENCH_SCHEMA = 1

_BENCH_RECORDS: dict[str, list[dict]] = {}


def bench_out_dir() -> Path:
    """Where BENCH_<suite>.json documents land."""
    default = Path(__file__).resolve().parent / "out"
    return Path(os.environ.get("REPRO_BENCH_OUT", default))


def record_bench(suite: str, case: str, wall_s: float,
                 peak_mb: float | None = None,
                 counters: dict | None = None, **extra) -> dict:
    """Accumulate one machine-readable benchmark record.

    ``suite`` names the output file (``BENCH_<suite>.json``); ``case``
    identifies the measurement within it, so recording a case twice in
    one suite raises ``ValueError``.  Extra keyword fields ride along
    verbatim (speedups, sizes, ...).
    """
    records = _BENCH_RECORDS.setdefault(suite, [])
    if any(r["case"] == case for r in records):
        raise ValueError(f"suite {suite!r} already holds case {case!r}")
    record = {
        "case": case,
        "wall_s": float(wall_s),
        "peak_mb": None if peak_mb is None else float(peak_mb),
        "counters": {k: int(v) for k, v in (counters or {}).items()},
    }
    record.update(extra)
    records.append(record)
    return record


#: Untraced calls :func:`best_wall` makes at most, and the wall it stops
#: after: a millisecond case gets every call, a minute-long one just one.
BENCH_REPEATS = 5
BENCH_REPEAT_BUDGET_S = 1.0


def best_wall(fn, *args) -> float:
    """The best wall of up to ``BENCH_REPEATS`` untraced ``fn(*args)``
    calls, stopping once ``BENCH_REPEAT_BUDGET_S`` has been spent."""
    best, spent = float("inf"), 0.0
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        seconds = time.perf_counter() - t0
        best, spent = min(best, seconds), spent + seconds
        if spent >= BENCH_REPEAT_BUDGET_S:
            break
    return best


def traced_peak(fn, *args) -> tuple[object, float]:
    """``(result, peak MB)`` of one ``fn(*args)`` call under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def pair_counters(deltas: dict) -> dict:
    """The pair-kernel counters of a record, from registry deltas.

    Keyed by registry name without ``repro_pair_`` and ``_total`` — the
    keys of the checked-in baselines.
    """
    return {
        field: deltas[f"repro_pair_{field}_total"]
        for field in PAIR_COUNTER_FIELDS
    }


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<suite>.json per suite that recorded anything."""
    if not _BENCH_RECORDS:
        return
    out = bench_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    for suite, records in sorted(_BENCH_RECORDS.items()):
        doc = {
            "schema": BENCH_SCHEMA,
            "suite": suite,
            "scale": bench_scale(),
            "records": records,
        }
        path = out / f"BENCH_{suite}.json"
        path.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {path} ({len(records)} records)")


def bench_scale() -> str:
    """The benchmark scale selected via REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'small' or 'paper', got {scale}")
    return scale


BENCH_NPROCS = 16


@pytest.fixture(scope="session")
def scale() -> str:
    """Benchmark scale fixture."""
    return bench_scale()


@pytest.fixture(scope="session", autouse=True)
def warm_traces(scale):
    """Generate (and cache) all four traces once per session so individual
    benchmarks time the experiment, not the trace generation.  The traces
    also land in the engine's on-disk store, so later sessions skip
    generation entirely."""
    for name in APP_NAMES:
        paper_trace(name, scale)


def print_series(label: str, values) -> None:
    """Render one figure series as the row the paper's plot shows."""
    arr = np.asarray(values, dtype=np.float64)
    body = " ".join(f"{v:6.3f}" for v in arr)
    print(f"  {label:<28s} {body}")
