"""Run-path benchmarks: dispatch overhead of ``n_jobs=1`` vs. a pool.

Both paths publish identical artifacts, so the interesting number is
the *orchestration overhead* each one adds around the same simulator
work: the in-process loop (``n_jobs=1``) is the floor, and the process
pool (``n_jobs=2``) pays worker spawn once per plan.  A warm-store
re-run through each path is also timed — resume cost is pure
plan-resolution and must not depend on ``n_jobs``.

Scale via ``REPRO_BENCH_SCALE`` as for the other benches.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import ResultStore, run_specs, sim_spec

from conftest import BENCH_NPROCS, record_bench

PARTITIONERS = ("nature+fable", "patch-lpt")
APPS = ("tp2d", "bl2d")
#: Case label -> ``n_jobs``.
PATHS = {"in-process": 1, "pool": 2}


def _sweep(scale):
    return [
        sim_spec(app, scale, nprocs=BENCH_NPROCS, partitioner=part)
        for app in APPS
        for part in PARTITIONERS
    ]


def test_backend_overhead(tmp_path, scale):
    specs = _sweep(scale)
    cold: dict[str, float] = {}
    warm: dict[str, float] = {}
    results: dict[str, list] = {}
    for name, n_jobs in PATHS.items():
        store = ResultStore(tmp_path / name)
        t0 = time.perf_counter()
        results[name] = run_specs(specs, store=store, n_jobs=n_jobs)
        cold[name] = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_specs(specs, store=store, n_jobs=n_jobs)
        warm[name] = time.perf_counter() - t0

    print()
    print(
        f"run-path overhead on {len(specs)} replays "
        f"(scale={scale}, P={BENCH_NPROCS})"
    )
    for name in PATHS:
        print(
            f"  {name:<10} cold {cold[name]:8.3f} s   "
            f"warm resume {warm[name]:8.3f} s"
        )
        record_bench("backends", f"cold:{name}:{scale}", cold[name],
                     jobs=len(specs))
        record_bench("backends", f"warm:{name}:{scale}", warm[name],
                     jobs=len(specs))

    # Identical results on both paths, and warm resumes never compute.
    for local, pooled in zip(results["in-process"], results["pool"]):
        assert local.key == pooled.key
        for column in local.arrays:
            assert np.array_equal(local.arrays[column], pooled.arrays[column])
    assert warm["in-process"] < cold["in-process"]
