"""Micro-benchmarks of the library's computational kernels.

These time the hot paths the repository's vectorization work targets:
box-intersection volume (the ``beta_m`` kernel), Hilbert/Morton key
generation, the hybrid partitioner, the sticky remapper, the execution
simulator's per-step metrics and full-model state sampling.

The sticky replay also records ``sticky:sc2d:<scale>`` into
``BENCH_kernels.json``: its pair counters and its move counts are
deterministic, so ``compare.py`` gates them exactly against the
checked-in baseline.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.geometry import intersection_volume
from repro.model import StateSampler, migration_penalty
from repro.partition import DomainSfcPartitioner, NaturePlusFable, sticky
from repro.sfc import hilbert_key, morton_key
from repro.simulator import TraceSimulator
from repro.telemetry import counter_deltas

from conftest import BENCH_NPROCS, pair_counters, record_bench


@pytest.fixture(scope="module")
def trace(scale):
    return paper_trace("sc2d", scale)


@pytest.fixture(scope="module")
def hierarchy_pair(trace):
    return trace[-2].hierarchy, trace[-1].hierarchy


def test_intersection_volume_kernel(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    a = prev.levels[-1].patches.boxes
    b = cur.levels[min(len(cur.levels), len(prev.levels)) - 1].patches.boxes
    result = benchmark(intersection_volume, a, b)
    assert result >= 0


def test_migration_penalty_full(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    value = benchmark(migration_penalty, prev, cur)
    assert 0.0 <= value <= 1.0


def test_hilbert_keys(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 12, size=100_000)
    y = rng.integers(0, 1 << 12, size=100_000)
    keys = benchmark(hilbert_key, x, y, 12)
    assert keys.shape == x.shape


def test_morton_keys(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 12, size=100_000)
    y = rng.integers(0, 1 << 12, size=100_000)
    keys = benchmark(morton_key, x, y, 12)
    assert keys.shape == x.shape


def test_nature_fable_partition(benchmark, hierarchy_pair):
    _, cur = hierarchy_pair
    part = NaturePlusFable()
    result = benchmark(part.partition, cur, BENCH_NPROCS)
    result.validate(cur)


def test_domain_sfc_partition(benchmark, hierarchy_pair):
    _, cur = hierarchy_pair
    part = DomainSfcPartitioner()
    result = benchmark(part.partition, cur, BENCH_NPROCS)
    result.validate(cur)


def _sticky_replay(trace) -> None:
    """Partition every snapshot under sticky-sfc, each against the
    distribution before it."""
    part = create("partitioner", "sticky-sfc")
    previous = None
    for snapshot in trace:
        previous = part.partition(snapshot.hierarchy, BENCH_NPROCS, previous)
        previous.validate(snapshot.hierarchy)


def test_sticky_replay(benchmark, trace, scale):
    """The sticky remapper over the sc2d trace: its pair queries (the
    inner partitioner's and one cut per persisting level) and its moves,
    each either every movable piece or a split in scan order."""
    moves: Counter = Counter()
    move = sticky._Cut.move

    def counted(cut, movable, take, volume):
        moves["moves"] += 1
        moves["partial_moves"] += take < volume
        return move(cut, movable, take, volume)

    tracemalloc.start()
    t0 = time.perf_counter()
    with mock.patch.object(sticky._Cut, "move", counted), counter_deltas() as c:
        _sticky_replay(trace)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    counters = {**pair_counters(c), **moves}
    print(f"\n  sticky:sc2d:{scale} {seconds * 1e3:8.1f} ms | {counters}")
    record_bench(
        "kernels", f"sticky:sc2d:{scale}", seconds, peak_mb=peak / 1e6,
        counters=counters,
    )
    assert moves["partial_moves"] > 0
    benchmark(_sticky_replay, trace)


def test_simulator_step_metrics(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    part = NaturePlusFable()
    prev_res = part.partition(prev, BENCH_NPROCS)
    cur_res = part.partition(cur, BENCH_NPROCS, previous=prev_res)
    sim = TraceSimulator()
    metrics = benchmark(
        sim.measure_step, cur, cur_res, prev_res, prev
    )
    assert metrics.total_seconds > 0


def test_state_sampling_per_trace(benchmark, trace):
    sampler = StateSampler(nprocs=BENCH_NPROCS)
    series = benchmark(sampler.penalty_series, trace)
    assert series.beta_m.shape[0] == len(trace)
