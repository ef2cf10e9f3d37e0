"""Dense-raster vs sparse owner-map cost of the simulator metric set.

Times — and measures the peak allocation of — one full per-step metric
evaluation (ghost exchange, message pairs, inter-level transfer,
migration) under both representations:

* **sparse**: box calculus on :class:`~repro.geometry.OwnerMap` corner
  arrays (the production path);
* **dense**: rasterize the same distributions and run the original numpy
  raster reductions (the tests' dense oracle, ``tests/dense_oracle.py``).

Two workloads are exercised: the paper's 2-D scale and the 3-D ``deep``
scale (32^3 base, 5 levels — a 512^3 finest index space) that motivated
the sparse refactor; at ``REPRO_BENCH_SCALE=small`` both shrink to the
CI-sized variants.  The printed table is the reproduction record for the
"sparse is measurably faster and smaller in 3-D" claim.
"""

from __future__ import annotations

import pytest

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.simulator import (
    TraceSimulator,
    ghost_exchange_cells,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
)

from conftest import (
    BENCH_NPROCS, bench_scale, best_wall, record_bench, traced_peak,
)
from tests import dense_oracle as dense


def _distributions(app: str, scale: str):
    """Two consecutive distributions of one trace under Nature+Fable."""
    trace = paper_trace(app, scale)
    part = create("partitioner", "nature+fable")
    prev_snap, cur_snap = trace[-2], trace[-1]
    prev = part.partition(prev_snap.hierarchy, BENCH_NPROCS)
    cur = part.partition(cur_snap.hierarchy, BENCH_NPROCS, previous=prev)
    return cur_snap.hierarchy, prev, cur


def _sparse_metrics(hierarchy, prev, cur) -> tuple:
    ghost = sum(
        ghost_exchange_cells(cur.maps[level.index]) for level in hierarchy
    )
    pairs = sum(
        ghost_message_pairs(cur.maps[level.index]) for level in hierarchy
    )
    inter = sum(
        interlevel_transfer_cells(
            cur.maps[level.index - 1], cur.maps[level.index], level.ratio
        )
        for level in hierarchy.levels[1:]
    )
    return ghost, pairs, inter, migration_cells(prev, cur)


def _dense_metrics(hierarchy, prev, cur) -> tuple:
    prev_rasters = tuple(m.rasterize() for m in prev.maps)
    cur_rasters = tuple(m.rasterize() for m in cur.maps)
    ghost = sum(
        dense.ghost_exchange_cells(cur_rasters[level.index])
        for level in hierarchy
    )
    pairs = sum(
        dense.ghost_message_pairs(cur_rasters[level.index])
        for level in hierarchy
    )
    inter = sum(
        dense.interlevel_transfer_cells(
            cur_rasters[level.index - 1],
            cur_rasters[level.index],
            level.ratio,
        )
        for level in hierarchy.levels[1:]
    )
    return ghost, pairs, inter, dense.migration_cells(prev_rasters, cur_rasters)


def _measure(fn, *args) -> tuple[tuple, float, float]:
    """(result, best seconds, peak MB): the result and peak of one traced
    call, the wall of the untraced ones."""
    result, peak_mb = traced_peak(fn, *args)
    return result, best_wall(fn, *args), peak_mb


def _compare(app: str, scale: str) -> dict:
    hierarchy, prev, cur = _distributions(app, scale)
    sparse_out, sparse_s, sparse_peak = _measure(
        _sparse_metrics, hierarchy, prev, cur
    )
    dense_out, dense_s, dense_peak = _measure(
        _dense_metrics, hierarchy, prev, cur
    )
    assert sparse_out == dense_out, "sparse/dense metric mismatch"
    row = {
        "workload": f"{app}:{scale}",
        "cells": hierarchy.ncells,
        "boxes": sum(m.nboxes for m in cur.maps),
        "sparse_s": sparse_s,
        "dense_s": dense_s,
        "sparse_peak_mb": sparse_peak,
        "dense_peak_mb": dense_peak,
    }
    print(
        f"\n  {row['workload']:<12} cells={row['cells']:>10,} "
        f"boxes={row['boxes']:>6} | sparse {sparse_s * 1e3:8.1f} ms "
        f"/ {row['sparse_peak_mb']:8.1f} MB | dense {dense_s * 1e3:8.1f} ms "
        f"/ {row['dense_peak_mb']:8.1f} MB | "
        f"speedup x{dense_s / max(sparse_s, 1e-9):.1f}, "
        f"memory x{dense_peak / max(sparse_peak, 1e-6):.0f}"
    )
    record_bench("owner_sparse", f"sparse:{row['workload']}", sparse_s,
                 peak_mb=row["sparse_peak_mb"],
                 cells=row["cells"], boxes=row["boxes"])
    record_bench("owner_sparse", f"dense:{row['workload']}", dense_s,
                 peak_mb=row["dense_peak_mb"],
                 cells=row["cells"], boxes=row["boxes"],
                 speedup=dense_s / max(sparse_s, 1e-9))
    return row


def test_owner_metrics_2d(benchmark):
    """2-D paper scale: sparse must stay within the same order as dense."""
    scale = bench_scale()
    row = _compare("tp2d", scale)
    hierarchy, prev, cur = _distributions("tp2d", scale)
    benchmark(_sparse_metrics, hierarchy, prev, cur)
    assert row["sparse_peak_mb"] < max(2.0 * row["dense_peak_mb"], 5.0)


def test_owner_metrics_3d_deep(benchmark):
    """3-D: sparse must beat dense on both time and peak allocation.

    At ``REPRO_BENCH_SCALE=paper`` this runs the true ``deep`` scale
    (512^3 finest index space) where the dense path allocates gigabytes;
    the CI-sized ``small`` fallback still asserts the same ordering.
    """
    scale = "deep" if bench_scale() == "paper" else "small"
    row = _compare("tp3d", scale)
    hierarchy, prev, cur = _distributions("tp3d", scale)
    benchmark(_sparse_metrics, hierarchy, prev, cur)
    assert row["sparse_peak_mb"] < row["dense_peak_mb"]
    if scale == "deep":
        assert row["sparse_s"] < row["dense_s"]


def test_full_replay_sparse_deep(benchmark):
    """Full sparse replay of the 3-D workload (the unlocked study)."""
    scale = "deep" if bench_scale() == "paper" else "small"
    trace = paper_trace("tp3d", scale)
    sim = TraceSimulator()
    result = benchmark.pedantic(
        sim.run,
        args=(trace, create("partitioner", "nature+fable"), BENCH_NPROCS),
        rounds=1,
        iterations=1,
    )
    assert len(result.steps) == len(trace)