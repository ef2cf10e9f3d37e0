"""Backend benchmarks: dispatch overhead of serial/process.

Both backends publish identical artifacts, so the interesting number is
the *orchestration overhead* each one adds around the same simulator
work: the serial loop is the floor, and the process pool pays worker
spawn once per plan.  A warm-store re-run through each backend is also
timed — resume cost is pure plan-resolution and must be
backend-independent.

Scale via ``REPRO_BENCH_SCALE`` as for the other benches.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import ResultStore, run_specs, sim_spec

from conftest import BENCH_NPROCS, record_bench

PARTITIONERS = ("nature+fable", "patch-lpt")
APPS = ("tp2d", "bl2d")


def _sweep(scale):
    return [
        sim_spec(app, scale, nprocs=BENCH_NPROCS, partitioner=part)
        for app in APPS
        for part in PARTITIONERS
    ]


def test_backend_overhead(tmp_path, scale):
    specs = _sweep(scale)
    backends = {
        "serial": lambda: "serial",
        "process": lambda: "process",
    }
    cold: dict[str, float] = {}
    warm: dict[str, float] = {}
    results: dict[str, list] = {}
    for name, make in backends.items():
        store = ResultStore(tmp_path / name)
        t0 = time.perf_counter()
        results[name] = run_specs(
            specs, store=store, backend=make(), n_jobs=2
        )
        cold[name] = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_specs(specs, store=store, backend=make(), n_jobs=2)
        warm[name] = time.perf_counter() - t0

    print()
    print(
        f"backend overhead on {len(specs)} replays "
        f"(scale={scale}, P={BENCH_NPROCS})"
    )
    for name in backends:
        print(
            f"  {name:<8} cold {cold[name]:8.3f} s   "
            f"warm resume {warm[name]:8.3f} s"
        )
        record_bench("backends", f"cold:{name}:{scale}", cold[name],
                     jobs=len(specs))
        record_bench("backends", f"warm:{name}:{scale}", warm[name],
                     jobs=len(specs))

    # Identical results across backends, and warm resumes never compute.
    for ser, other in zip(results["serial"], results["process"]):
        assert ser.key == other.key
        for column in ser.arrays:
            assert np.array_equal(ser.arrays[column], other.arrays[column])
    assert warm["serial"] < cold["serial"]
