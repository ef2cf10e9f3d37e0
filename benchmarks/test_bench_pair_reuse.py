"""End-to-end replay cost of the temporal-coherence reuse layer.

Replays one full partitioner run (every regrid step, all metrics)
under ``REPRO_PAIR_REUSE=auto`` — persistent per-map pair indexes,
delta-updated between consecutive steps, plus the batched overlay
engine — and under ``=off``, the per-query PR-6 path.  Step metrics
must agree exactly; the wall-clock ratio and the build/reuse/delta
counters are the reproduction record, published to
``BENCH_pair_reuse.json`` for the CI baseline diff.
"""

from __future__ import annotations

import time

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.geometry import pair_index_forced, pair_reuse_forced
from repro.simulator import TraceSimulator
from repro.telemetry import counter_deltas

from conftest import BENCH_NPROCS, bench_scale, pair_counters, record_bench


def _replay(mode: str, app: str, scale: str):
    trace = paper_trace(app, scale)
    part = create("partitioner", "nature+fable")
    sim = TraceSimulator()
    t0 = time.perf_counter()
    with (
        pair_index_forced("grid"),
        pair_reuse_forced(mode),
        counter_deltas() as moved,
    ):
        result = sim.run(trace, part, BENCH_NPROCS)
    seconds = time.perf_counter() - t0
    return result, seconds, pair_counters(moved)


def _compare_replay(app: str, scale: str) -> dict:
    on_result, on_s, on_counters = _replay("auto", app, scale)
    off_result, off_s, off_counters = _replay("off", app, scale)
    assert len(on_result.steps) == len(off_result.steps)
    for s_on, s_off in zip(on_result.steps, off_result.steps):
        assert s_on == s_off, "reuse layer changed a replay step metric"
    assert on_counters["index_reuses"] > 0, "reuse never engaged"
    assert on_counters["delta_updates"] > 0, "no step-to-step delta updates"
    assert off_counters["index_reuses"] == 0
    row = {
        "workload": f"{app}:{scale}",
        "steps": len(on_result.steps),
        "reuse_on_s": on_s,
        "reuse_off_s": off_s,
        "speedup": off_s / max(on_s, 1e-9),
        "index_builds": on_counters["index_builds"],
        "index_reuses": on_counters["index_reuses"],
        "delta_updates": on_counters["delta_updates"],
    }
    print(
        f"\n  {row['workload']:<12} {row['steps']:>3} steps | "
        f"reuse on {on_s:7.3f} s ({row['index_builds']} builds, "
        f"{row['delta_updates']} deltas, {row['index_reuses']} reuses) | "
        f"off {off_s:7.3f} s | speedup x{row['speedup']:.2f}"
    )
    record_bench(
        "pair_reuse", f"replay-on:{row['workload']}", on_s,
        counters=on_counters, steps=row["steps"],
    )
    record_bench(
        "pair_reuse", f"replay-off:{row['workload']}", off_s,
        counters=off_counters, steps=row["steps"],
        speedup=row["speedup"],
    )
    return row


def test_full_replay_reuse_2d(benchmark):
    """2-D paper scale: bit-identical steps, reuse engaged."""
    scale = bench_scale()
    _compare_replay("tp2d", scale)
    trace = paper_trace("tp2d", scale)
    part = create("partitioner", "nature+fable")
    sim = TraceSimulator()
    with pair_index_forced("grid"), pair_reuse_forced("auto"):
        result = benchmark.pedantic(
            sim.run, args=(trace, part, BENCH_NPROCS), rounds=1, iterations=1
        )
    assert len(result.steps) == len(trace)


def test_full_replay_reuse_3d_deep(benchmark):
    """3-D deep: the reuse replay must beat the per-query path >= 1.5x."""
    scale = "deep" if bench_scale() == "paper" else "small"
    row = _compare_replay("tp3d", scale)
    trace = paper_trace("tp3d", scale)
    part = create("partitioner", "nature+fable")
    sim = TraceSimulator()
    with pair_index_forced("grid"), pair_reuse_forced("auto"):
        result = benchmark.pedantic(
            sim.run, args=(trace, part, BENCH_NPROCS), rounds=1, iterations=1
        )
    assert len(result.steps) == len(trace)
    if scale == "deep":
        assert row["reuse_off_s"] >= 1.5 * row["reuse_on_s"], (
            f"expected >= 1.5x end-to-end replay speedup at deep scale, "
            f"got x{row['speedup']:.2f}"
        )
