"""One counter store: every count lives in the metrics registry.

The pair kernels, the store read cache, run profiles, kernel spans,
``repro report --timings`` and the Prometheus exposition all read the
same registry series.  The guarantees under test:

* a ``_total`` series never decreases inside a live process (Prometheus
  would read a drop as a counter reset);
* a fixed tiny sweep produces pinned counter names and values, and the
  run-profile counter blocks, :func:`aggregate_timings` and the
  Prometheus exposition agree on them.
"""

from __future__ import annotations

import json

from repro.engine import ResultStore, run_spec, run_specs, sim_spec
from repro.engine.store import clear_read_cache, read_cache_stats
from repro.telemetry import (
    TELEMETRY_ENV,
    aggregate_timings,
    find_run_profiles,
    metrics_registry,
    parse_prometheus,
    render_prometheus,
    render_timings,
    reset_metrics,
)
from repro.telemetry.metrics import BUILTIN_COUNTERS

#: Pair-kernel counters of the golden sweep: tp2d at ``small`` under
#: nature+fable and patch-lpt on 4 ranks, grid-indexed candidates.
GOLDEN = {
    "repro_pair_queries_total": 156,
    "repro_pair_grid_queries_total": 120,
    "repro_pair_pair_product_total": 45443,
    "repro_pair_candidate_pairs_total": 8732,
    "repro_pair_exact_pairs_total": 1912,
    "repro_pair_index_builds_total": 24,
    "repro_pair_index_reuses_total": 120,
    "repro_pair_delta_updates_total": 12,
}


def _totals(snapshot: dict) -> dict:
    """Every ``_total`` series of a snapshot, keyed by name and labels."""
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in snapshot["counters"]
        if c["name"].endswith("_total")
    }


def test_counters_never_go_backwards(tmp_path):
    spec = sim_spec("tp2d", "small", nprocs=4, partitioner="nature+fable")
    store = ResultStore(tmp_path)
    run_spec(spec, store=store)
    assert store.get_result(spec) is not None
    assert store.get_result(spec) is not None
    before = _totals(metrics_registry().snapshot())
    assert before[("repro_store_read_cache_hits_total", ())] >= 1
    assert before[("repro_pair_queries_total", ())] >= 1
    clear_read_cache()
    after = _totals(metrics_registry().snapshot())
    dropped = {
        key: (value, after.get(key, 0.0))
        for key, value in before.items()
        if after.get(key, 0.0) < value
    }
    assert not dropped, f"_total series went backwards: {dropped}"


def test_read_cache_stats_is_a_registry_view(tmp_path):
    spec = sim_spec("tp2d", "small", nprocs=4, partitioner="patch-lpt")
    store = ResultStore(tmp_path)
    run_spec(spec, store=store)
    stats = read_cache_stats()
    assert set(stats) == {"hits", "misses", "evictions", "mmap_loads"}
    registry = metrics_registry()
    for field, value in stats.items():
        name = f"repro_store_read_cache_{field}_total"
        assert value == registry.counter_value(name)
    clear_read_cache()
    assert read_cache_stats() == stats


def test_golden_sweep_counters_agree_across_surfaces(tmp_path, monkeypatch):
    monkeypatch.setenv(TELEMETRY_ENV, "json")
    monkeypatch.setenv("REPRO_PAIR_INDEX", "grid")
    monkeypatch.delenv("REPRO_PAIR_REUSE", raising=False)
    store = ResultStore(tmp_path / "store")
    reset_metrics()
    run_specs(
        [
            sim_spec("tp2d", "small", nprocs=4, partitioner=part)
            for part in ("nature+fable", "patch-lpt")
        ],
        store=store,
    )

    # Run profiles: one counter block per run, keyed by registry name.
    summed: dict[str, float] = {}
    profiles = find_run_profiles(store.root)
    assert len(profiles) == 3  # the trace and the two replays
    for path in profiles:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["schema"] == 2
        for name, value in doc["counters"].items():
            summed[name] = summed.get(name, 0.0) + value
    assert summed == GOLDEN

    timings = aggregate_timings(store.root)
    assert timings["counters"] == GOLDEN
    text = render_timings(timings)
    assert "pair kernels: 156 queries, 45,443 brute-force pair product" in text
    assert "index reuse: 24 builds, 12 delta updates, 120 reuses" in text

    exposition = parse_prometheus(render_prometheus(metrics_registry().snapshot()))
    scraped = {
        s["name"]: s["value"] for s in exposition["samples"] if not s["labels"]
    }
    for name, value in GOLDEN.items():
        assert scraped[name] == value, name
    for name in BUILTIN_COUNTERS:
        if name.startswith("repro_pair_") and name not in GOLDEN:
            assert scraped[name] == 0, name
