"""Engine benchmarks: sharded-sweep speedup and warm-store reuse.

Measures the two wins the execution subsystem exists for:

* *parallel speedup* — the static-suite sweep sharded over worker
  processes vs. the serial in-process path (reported; only loosely
  asserted, since process start-up dominates at ``small`` scale);
* *warm-cache speedup* — re-running a sweep against a warm store must
  skip the simulator entirely, which is what makes regenerating every
  figure from stored results practically free.

Scale via ``REPRO_BENCH_SCALE`` as for the other benches; worker count
via ``REPRO_BENCH_JOBS`` (default 2).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine import ResultStore, build_plan, run_specs, sim_spec
from repro.experiments import APP_NAMES

from conftest import BENCH_NPROCS, record_bench

N_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "2"))

PARTITIONERS = ("nature+fable", "domain-sfc-hilbert", "patch-lpt")


def _sweep(scale):
    return [
        sim_spec(app, scale, nprocs=BENCH_NPROCS, partitioner=part)
        for app in APP_NAMES
        for part in PARTITIONERS
    ]


def test_sharded_sweep_speedup_and_warm_reuse(tmp_path, scale):
    specs = _sweep(scale)

    t0 = time.perf_counter()
    serial = run_specs(specs, n_jobs=1, store=ResultStore(tmp_path / "serial"))
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_specs(
        specs, n_jobs=N_JOBS, store=ResultStore(tmp_path / "parallel")
    )
    t_parallel = time.perf_counter() - t0

    warm_store = ResultStore(tmp_path / "serial")
    t0 = time.perf_counter()
    warm = run_specs(specs, n_jobs=1, store=warm_store)
    t_warm = time.perf_counter() - t0

    print()
    print(
        f"sweep of {len(specs)} replays ({len(APP_NAMES)} apps x "
        f"{len(PARTITIONERS)} partitioners, scale={scale}, P={BENCH_NPROCS})"
    )
    print(f"  serial (n_jobs=1)      {t_serial:8.3f} s")
    print(
        f"  sharded (n_jobs={N_JOBS})     {t_parallel:8.3f} s   "
        f"speedup x{t_serial / t_parallel:.2f}"
    )
    print(
        f"  warm store re-run      {t_warm:8.3f} s   "
        f"speedup x{t_serial / t_warm:.2f}"
    )
    record_bench("engine", f"serial:{scale}", t_serial, jobs=len(specs))
    record_bench("engine", f"sharded-{N_JOBS}:{scale}", t_parallel,
                 jobs=len(specs), speedup=t_serial / t_parallel)
    record_bench("engine", f"warm:{scale}", t_warm,
                 jobs=len(specs), speedup=t_serial / t_warm)

    # Parallel and serial must agree bit-for-bit; warm must not recompute.
    for ser, par, wrm in zip(serial, parallel, warm):
        assert ser.key == par.key == wrm.key
        for name in ser.arrays:
            assert np.array_equal(ser.arrays[name], par.arrays[name])
            assert np.array_equal(ser.arrays[name], wrm.arrays[name])
    assert t_warm < t_serial  # store hits must beat simulation
    assert build_plan(specs, warm_store).pending() == []
