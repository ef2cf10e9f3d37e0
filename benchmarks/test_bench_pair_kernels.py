"""Quadratic vs slab-sweep cost of the pair-kernel metric set.

Times — and measures the peak allocation of — one full per-step metric
evaluation (ghost exchange, message pairs, inter-level transfer,
migration) on each candidate path, selected through the brute-force
cutoff seam (the ``sweep`` row of ``tests/test_oracles.py``):

* **indexed**: the slab sweep for every query whose operands both hold
  two rows or more;
* **bruteforce**: the hit matrix for every query — the interval test on
  all O(boxes^2) pairs, in chunks — the sweep's oracle.

Both paths find exactly the intersecting (or, for faces, touching)
pairs and feed them to the same arithmetic, so the two rows differ only
in how the candidates are found.

The rank-matched volumes of the inter-level and migration metrics
(``matched_volume``) take neither path: their same-rank sweep ignores
``_BRUTE_CUTOFF``, so it serves both rows alike and is charged to both
as brute-force queries.

Three workloads are exercised: the paper's 2-D scale, the 3-D ``deep``
scale (512^3 finest index space) and the 3-D ``ultra`` scale (64^3
base, 5 levels — a 1024^3 finest index space); at
``REPRO_BENCH_SCALE=small`` all three shrink to the CI-sized variant.
The 3-D workloads run with every merge patched out: the one coalesce
behind ``cell_boxes`` and ``OwnerMap.coalesced``
(``ownermap._coalesce_rows``) is the identity, so the maps hold
Nature+Fable's unit runs clipped to the patches, the sweep's stress
operands.  The maps Nature+Fable hands over (merged by ``cell_boxes``)
hold 6-10x fewer boxes, and the coalesced maps the simulator measures
15-30x fewer.  At ``ultra`` the brute-force path is *not run* — its
candidate product (printed from the kernel counters) is the
infeasibility record.  The
printed table, including candidate vs exact vs brute-force pair counts,
is the reproduction record.

:func:`test_replay_sweep_matches_bruteforce` replays whole partitioner
runs on both paths and asserts identical step metrics; at ``paper``
scale it covers the real queries whose mixed box scales make the sweep
widen its slabs.
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
from repro.telemetry import counter_deltas

from conftest import (
    BENCH_NPROCS, bench_scale, best_wall, pair_counters, record_bench,
    traced_peak,
)
from test_bench_owner_sparse import _distributions
from tests.test_oracles import ORACLES

#: Every pair query with two rows or more a side on the sweep (``fast``)
#: or every query on the hit matrix (``reference``).
SWEEP = ORACLES["sweep"]


def _uncoalesced_distributions(app: str, scale: str):
    """:func:`_distributions` with every merge patched out (the
    ``coalesce`` row's reference): neither ``cell_boxes`` nor
    :class:`PartitionResult` coalesces, so the maps hold the
    partitioners' unit runs clipped to the patches."""
    with ORACLES["coalesce"].reference():
        return _distributions(app, scale)


def _metric_set(hierarchy, prev, cur) -> tuple:
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


def _measure(path, hierarchy, prev, cur):
    """(result, best seconds, peak MB, counter deltas) on one path: the
    result, peak and counters of one traced call, the wall of the
    untraced ones."""
    with path():
        with counter_deltas() as moved:
            result, peak_mb = traced_peak(_metric_set, hierarchy, prev, cur)
        seconds = best_wall(_metric_set, hierarchy, prev, cur)
    return result, seconds, peak_mb, pair_counters(moved)


def _compare(app: str, scale: str, distributions, run_brute: bool = True,
             label: str = "") -> dict:
    hierarchy, prev, cur = distributions
    indexed_out, indexed_s, indexed_peak, counters = _measure(
        SWEEP.fast, hierarchy, prev, cur
    )
    row = {
        "workload": f"{app}:{scale}{label}",
        "cells": hierarchy.ncells,
        "boxes": sum(m.nboxes for m in cur.maps),
        "indexed_s": indexed_s,
        "indexed_peak_mb": indexed_peak,
        "pair_product": counters["pair_product"],
        "candidate_pairs": counters["candidate_pairs"],
        "exact_pairs": counters["exact_pairs"],
    }
    print(
        f"\n  {row['workload']:<12} cells={row['cells']:>13,} "
        f"boxes={row['boxes']:>6} | candidates {row['candidate_pairs']:>11,} "
        f"of {row['pair_product']:>14,} brute-force pairs "
        f"({row['exact_pairs']:,} exact) | "
        f"indexed {indexed_s * 1e3:8.1f} ms / {row['indexed_peak_mb']:7.1f} MB"
    )
    record_bench(
        "pair_kernels", f"indexed:{row['workload']}", indexed_s,
        peak_mb=row["indexed_peak_mb"], counters=counters,
        cells=row["cells"], boxes=row["boxes"],
    )
    if not run_brute:
        print(
            f"  {'':12} brute force NOT RUN: the quadratic sweep would "
            f"examine {row['pair_product']:,} candidate pairs "
            f"(x{row['pair_product'] / max(row['candidate_pairs'], 1):,.0f} "
            f"the indexed candidates) — infeasible at this scale"
        )
        return row
    brute_out, brute_s, brute_peak, _ = _measure(
        SWEEP.reference, hierarchy, prev, cur
    )
    assert indexed_out == brute_out, "indexed/bruteforce metric mismatch"
    row["brute_s"] = brute_s
    row["brute_peak_mb"] = brute_peak
    record_bench(
        "pair_kernels", f"bruteforce:{row['workload']}", brute_s,
        peak_mb=row["brute_peak_mb"],
        cells=row["cells"], boxes=row["boxes"],
        speedup=brute_s / max(indexed_s, 1e-9),
    )
    print(
        f"  {'':12} brute force {brute_s * 1e3:8.1f} ms / "
        f"{row['brute_peak_mb']:7.1f} MB | "
        f"speedup x{brute_s / max(indexed_s, 1e-9):.1f}, "
        f"memory x{brute_peak / max(indexed_peak, 1e-6):.1f}"
    )
    return row


def test_pair_kernels_2d(benchmark):
    """2-D paper scale: the sweep must agree with the hit matrix.

    Most 2-D queries are small enough for the hit matrix, which is why
    the production path sends them there: forcing the sweep on all of
    them measures its setup cost, not a win.
    """
    scale = bench_scale()
    distributions = _distributions("tp2d", scale)
    row = _compare("tp2d", scale, distributions)
    with SWEEP.fast():
        benchmark(_metric_set, *distributions)
    # Identical results asserted inside _compare; the 2-D workloads are
    # small enough that either path is fast — no ordering assertion.
    assert row["candidate_pairs"] <= row["pair_product"]


def test_pair_kernels_3d_deep(benchmark):
    """3-D deep: the indexed metric set must be >= 3x faster.

    At ``REPRO_BENCH_SCALE=paper`` this runs the true ``deep`` scale
    (512^3 finest index space) on ~26k boxes, every merge patched out;
    the CI-sized ``small`` fallback only asserts agreement (tiny inputs
    can't show the asymptotic win).
    """
    scale = "deep" if bench_scale() == "paper" else "small"
    distributions = _uncoalesced_distributions("tp3d", scale)
    row = _compare("tp3d", scale, distributions)
    with SWEEP.fast():
        benchmark(_metric_set, *distributions)
    if scale == "deep":
        assert row["brute_s"] >= 3.0 * row["indexed_s"], (
            f"expected >= 3x speedup at deep scale, got "
            f"x{row['brute_s'] / max(row['indexed_s'], 1e-9):.2f}"
        )


def test_pair_kernels_3d_ultra(benchmark):
    """3-D ultra (1024^3 finest space): indexed only — brute infeasible.

    Runs with every merge patched out (~66k boxes at ``ultra``).
    The brute-force candidate product is printed from the kernel
    counters as the infeasibility record; the quadratic path is not
    executed at this scale.
    """
    scale = "ultra" if bench_scale() == "paper" else "small"
    distributions = _uncoalesced_distributions("tp3d", scale)
    # The small fallback measures the deep test's case; a label of its
    # own keeps the two records apart.
    row = _compare("tp3d", scale, distributions, run_brute=(scale == "small"),
                   label="" if scale == "ultra" else ":ultra")
    with SWEEP.fast():
        benchmark(_metric_set, *distributions)
    if scale == "ultra":
        # The pruning gap is the record: candidates must be orders of
        # magnitude below the quadratic product.
        assert row["candidate_pairs"] * 100 <= row["pair_product"]


@pytest.mark.parametrize("partitioner", ["nature+fable", "sticky-sfc"])
@pytest.mark.parametrize("app", ["bl2d", "bl3d"])
def test_replay_sweep_matches_bruteforce(app, partitioner):
    """Whole replays give identical step metrics on both paths.

    Partitioning and measuring with every pair query of two rows or
    more a side on the sweep, and with every query on the hit matrix,
    must produce equal :class:`StepMetrics` at every regrid step.
    """
    trace = paper_trace(app, bench_scale())
    steps = []
    for path in (SWEEP.fast, SWEEP.reference):
        with path():
            steps.append(TraceSimulator().run(
                trace, create("partitioner", partitioner), BENCH_NPROCS
            ).steps)
    assert len(steps[0]) == len(trace)
    assert steps[0] == steps[1]


def test_full_replay_indexed_ultra(benchmark):
    """Full indexed replay of one ultra-scale partitioner run."""
    scale = "ultra" if bench_scale() == "paper" else "small"
    trace = paper_trace("tp3d", scale)
    sim = TraceSimulator()
    with SWEEP.fast():
        result = benchmark.pedantic(
            sim.run,
            args=(trace, create("partitioner", "nature+fable"), BENCH_NPROCS),
            rounds=1,
            iterations=1,
        )
    assert len(result.steps) == len(trace)
