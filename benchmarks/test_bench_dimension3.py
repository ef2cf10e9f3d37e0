"""Micro-benchmarks of the 3-D hot paths opened by the dimension refactor.

Times the N-D SFC key kernels, the 3-D column-workload reduction, the
partitioners and the simulator's per-step raster metrics on the tp3d
trace — the same hot paths :mod:`test_bench_kernels` times in 2-D.  The
column-workload reduction, one :func:`~repro.geometry.block_overlaps`
call over every level's patches, is recorded as
``BENCH_dimension3.json`` (``column_workloads:<scale>``).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.experiments import paper_trace
from repro.geometry import rasterize_mask
from repro.partition import DomainSfcPartitioner, NaturePlusFable
from repro.sfc import hilbert_key_nd, morton_key_nd
from repro.simulator import TraceSimulator

from conftest import BENCH_NPROCS, record_bench
from tests import dense_oracle as dense


@pytest.fixture(scope="module")
def trace(scale):
    return paper_trace("tp3d", scale)


@pytest.fixture(scope="module")
def hierarchy_pair(trace):
    return trace[-2].hierarchy, trace[-1].hierarchy


def test_hilbert_keys_3d(benchmark):
    rng = np.random.default_rng(0)
    coords = [rng.integers(0, 1 << 12, size=100_000) for _ in range(3)]
    keys = benchmark(hilbert_key_nd, coords, 12)
    assert keys.shape == coords[0].shape


def test_morton_keys_3d(benchmark):
    rng = np.random.default_rng(0)
    coords = [rng.integers(0, 1 << 12, size=100_000) for _ in range(3)]
    keys = benchmark(morton_key_nd, coords, 12)
    assert keys.shape == coords[0].shape


def _dense_column_workloads(hierarchy, unit_size: int) -> np.ndarray:
    """The dense oracle: every level's rasterized mask, block-summed to
    the units and weighted by the level's time-refinement weight."""
    out = np.zeros(tuple(s // unit_size for s in hierarchy.domain.shape))
    for level in hierarchy:
        mask = rasterize_mask(
            level.patches, hierarchy.level_domain(level.index)
        )
        block = unit_size * hierarchy.cumulative_ratio(level.index)
        out += dense.block_sum(mask, block) * level.time_refinement_weight()
    return out


def test_column_workloads_3d(benchmark, hierarchy_pair, scale):
    _, cur = hierarchy_pair
    weights = benchmark(cur.column_workloads, 2)
    assert weights.sum() == pytest.approx(cur.workload)
    if scale == "small":
        assert weights.tobytes() == _dense_column_workloads(cur, 2).tobytes()
    tracemalloc.start()
    t0 = time.perf_counter()
    cur.column_workloads(2)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    record_bench(
        "dimension3", f"column_workloads:{scale}", seconds,
        peak_mb=peak / 1e6, rows=cur.npatches, cells=weights.size,
    )


def test_domain_sfc_partition_3d(benchmark, hierarchy_pair):
    _, cur = hierarchy_pair
    part = DomainSfcPartitioner()
    result = benchmark(part.partition, cur, BENCH_NPROCS)
    result.validate(cur)


def test_nature_fable_partition_3d(benchmark, hierarchy_pair):
    _, cur = hierarchy_pair
    part = NaturePlusFable()
    result = benchmark(part.partition, cur, BENCH_NPROCS)
    result.validate(cur)


def test_simulator_step_metrics_3d(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    part = NaturePlusFable()
    prev_res = part.partition(prev, BENCH_NPROCS)
    cur_res = part.partition(cur, BENCH_NPROCS, previous=prev_res)
    sim = TraceSimulator()
    metrics = benchmark(sim.measure_step, cur, cur_res, prev_res, prev)
    assert metrics.total_seconds > 0


def test_full_replay_3d(benchmark, trace):
    sim = TraceSimulator()
    result = benchmark.pedantic(
        sim.run,
        args=(trace, DomainSfcPartitioner(), BENCH_NPROCS),
        rounds=1,
        iterations=1,
    )
    assert len(result.steps) == len(trace)
