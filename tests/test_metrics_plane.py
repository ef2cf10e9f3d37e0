"""Tests for the always-on counter registry.

Covers the registry contract (labels, declared series, scoped deltas,
name validation, thread safety under concurrent increments, the
snapshot shape its readers parse), the ``repro report --timings``
counter block, and the retirement of every other kind of metric with
the exporter that served them.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.telemetry as telemetry
from repro.engine import ResultStore, run_specs, sim_spec
from repro.engine.cli import build_parser
from repro.telemetry import (
    TELEMETRY_ENV,
    MetricsRegistry,
    counter_deltas,
    metrics_registry,
    render_timings,
)
from repro.telemetry.metrics import BUILTIN_COUNTERS
from repro.telemetry.profile import aggregate_timings


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_counter_labels():
    reg = MetricsRegistry()
    reg.inc("repro_jobs_total", outcome="completed")
    reg.inc("repro_jobs_total", 2, outcome="completed")
    reg.inc("repro_jobs_total", outcome="failed")
    assert reg.counter_value("repro_jobs_total", outcome="completed") == 3
    assert reg.counter_value("repro_jobs_total", outcome="failed") == 1
    assert reg.counter_value("repro_jobs_total", outcome="missing") == 0
    snap = reg.snapshot()
    names = {(c["name"], tuple(sorted(c["labels"].items())))
             for c in snap["counters"]}
    assert ("repro_jobs_total", (("outcome", "completed"),)) in names


def test_snapshot_holds_only_counters_in_sorted_order():
    reg = MetricsRegistry()
    reg.inc("repro_b_total", kind="sim", outcome="failed")
    reg.inc("repro_b_total", 2, kind="sim", outcome="completed")
    reg.inc("repro_a_total", 3, rank=7)
    reg.declare("repro_c_total")
    assert reg.snapshot() == {"counters": [
        {"name": "repro_a_total", "labels": {"rank": "7"}, "value": 3.0},
        {"name": "repro_b_total",
         "labels": {"kind": "sim", "outcome": "completed"}, "value": 2.0},
        {"name": "repro_b_total",
         "labels": {"kind": "sim", "outcome": "failed"}, "value": 1.0},
        {"name": "repro_c_total", "labels": {}, "value": 0.0},
    ]}
    assert reg.counter_value("repro_a_total", rank="7") == 3.0


def test_counter_group_charges_prekeyed_counters():
    reg = MetricsRegistry()
    add = reg.counter_group("repro_k_{}_total", ("hits", "misses"))
    add(hits=2, misses=1)
    add(hits=3)
    assert reg.counter_value("repro_k_hits_total") == 5
    assert reg.counter_value("repro_k_misses_total") == 1
    with pytest.raises(ValueError):
        reg.counter_group("bad-{}", ("name",))


def test_declared_counters_survive_reset_at_zero():
    reg = MetricsRegistry()
    reg.declare("repro_a_total")
    reg.inc("repro_a_total", 4)
    reg.inc("repro_b_total")
    reg.reset()
    names = {c["name"]: c["value"]
             for c in reg.snapshot()["counters"]}
    assert names == {"repro_a_total": 0.0}


def test_counter_deltas_scope_a_block():
    reg = MetricsRegistry()
    reg.inc("repro_a_total", 10)
    with counter_deltas(reg) as outer:
        reg.inc("repro_a_total", 2, kind="x")
        with counter_deltas(reg) as inner:
            reg.inc("repro_b_total", 3)
    assert outer == {"repro_a_total": 2.0, "repro_b_total": 3.0}
    assert inner == {"repro_a_total": 0.0, "repro_b_total": 3.0}


def test_invalid_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("bad-name")
    with pytest.raises(ValueError):
        reg.inc("ok_name", **{"bad-label": 1})


def test_registry_thread_safety_under_concurrent_increments():
    reg = MetricsRegistry()
    add = reg.counter_group("repro_grouped_{}_total", ("a", "b"))
    threads = 8
    per_thread = 1000

    def worker():
        for _ in range(per_thread):
            reg.inc("repro_contended_total")
            add(a=1, b=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert reg.counter_value("repro_contended_total") == threads * per_thread
    assert reg.counter_value("repro_grouped_a_total") == threads * per_thread
    assert reg.counter_value("repro_grouped_b_total") == 2 * threads * per_thread


def test_global_registry_exports_pair_and_store_cache_counters():
    snap = metrics_registry().snapshot()
    names = {c["name"] for c in snap["counters"]}
    # The pair kernels' and the store read cache's counters are always
    # visible, even at zero.
    assert "repro_store_read_cache_hits_total" in names
    assert "repro_store_read_cache_misses_total" in names
    assert set(BUILTIN_COUNTERS) <= names


# ---------------------------------------------------------------------------
# report --timings surfacing
# ---------------------------------------------------------------------------

def test_timings_print_one_counter_block(tmp_path):
    # Two hand-crafted run profiles: their counter blocks add up.
    for key, hits in (("ab" + "0" * 62, 20), ("cd" + "0" * 62, 10)):
        profile_dir = tmp_path / "telemetry" / "runs" / key[:2]
        profile_dir.mkdir(parents=True)
        (profile_dir / f"{key}.json").write_text(json.dumps({
            "schema": 2, "key": key, "kind": "sim",
            "label": "tp2d small", "wall_s": 1.0, "spans": [],
            "counters": {
                "repro_store_read_cache_hits_total": hits,
                "repro_store_read_cache_misses_total": 5,
            },
        }), encoding="utf-8")
    doc = aggregate_timings(tmp_path)
    assert doc["counters"]["repro_store_read_cache_hits_total"] == 30
    text = render_timings(doc)
    assert "store read cache: 30 hits / 10 misses (75% hit rate)" in text
    assert text.count("store read cache:") == 1


# ---------------------------------------------------------------------------
# retired surfaces
# ---------------------------------------------------------------------------

#: Modules ``import repro.engine.cli`` must leave unloaded.
OFF_IMPORT_PATH = ("http.server", "scipy")

#: Public names the counter-only registry retired.
RETIRED_NAMES = (
    "DEFAULT_BUCKETS",
    "MetricsServer",
    "annotate",
    "flush_active",
    "load_metrics_snapshots",
    "metric_gauge",
    "metric_observe",
    "metrics_dir",
    "parse_prometheus",
    "render_prometheus",
    "telemetry_enabled",
    "write_metrics_files",
)


def test_exporter_gauges_histograms_and_collectors_are_retired(
    tmp_path, monkeypatch
):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro.engine.cli; "
         f"print(json.dumps([m for m in {OFF_IMPORT_PATH!r} "
         "if m in sys.modules]))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(loaded.stdout) == []

    assert not [name for name in RETIRED_NAMES if hasattr(telemetry, name)]
    assert importlib.util.find_spec("repro.telemetry.export") is None
    for method in ("set", "observe", "add_collector"):
        assert not hasattr(MetricsRegistry, method), method

    with pytest.raises(SystemExit) as usage:
        build_parser().parse_args(["sweep", "--metrics-port", "0"])
    assert usage.value.code == 2

    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    store = ResultStore(tmp_path / "store")
    spec = sim_spec("tp2d", "small", nprocs=4, partitioner="patch-lpt")
    run_specs([spec], store=store)
    assert store.has(spec.key())
    assert not (store.root / "telemetry").exists()
