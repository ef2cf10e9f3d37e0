"""Tests for the always-on metrics plane.

Covers the registry contract (labels, histograms, collectors, thread
safety under concurrent increments), the Prometheus text exposition
(render -> parse round-trip, label escaping), the HTTP endpoints and
atomic file snapshots, and the ``repro report --timings`` counter
block.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.telemetry import (
    MetricsRegistry,
    MetricsServer,
    counter_deltas,
    load_metrics_snapshots,
    metrics_registry,
    parse_prometheus,
    render_prometheus,
    render_timings,
    write_metrics_files,
)
from repro.telemetry.metrics import BUILTIN_COUNTERS
from repro.telemetry.profile import aggregate_timings


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_counter_gauge_and_labels():
    reg = MetricsRegistry()
    reg.inc("repro_jobs_total", outcome="completed")
    reg.inc("repro_jobs_total", 2, outcome="completed")
    reg.inc("repro_jobs_total", outcome="failed")
    reg.set("repro_depth", 7, layer=0)
    assert reg.counter_value("repro_jobs_total", outcome="completed") == 3
    assert reg.counter_value("repro_jobs_total", outcome="failed") == 1
    assert reg.counter_value("repro_jobs_total", outcome="missing") == 0
    snap = reg.snapshot(run_collectors=False)
    names = {(c["name"], tuple(sorted(c["labels"].items())))
             for c in snap["counters"]}
    assert ("repro_jobs_total", (("outcome", "completed"),)) in names
    assert snap["gauges"] == [
        {"name": "repro_depth", "labels": {"layer": "0"}, "value": 7.0}
    ]


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
             for c in reg.snapshot(run_collectors=False)["counters"]}
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


def test_histogram_bucketing():
    reg = MetricsRegistry()
    bounds = (0.1, 1.0, 10.0)
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        reg.observe("repro_lat_seconds", value, buckets=bounds)
    [hist] = reg.snapshot(run_collectors=False)["histograms"]
    assert hist["bounds"] == [0.1, 1.0, 10.0]
    assert hist["counts"] == [1, 2, 1, 1]  # last slot is +Inf overflow
    assert hist["count"] == 5
    assert hist["sum"] == pytest.approx(56.05)


def test_histogram_bounds_pinned_by_first_observation():
    reg = MetricsRegistry()
    reg.observe("repro_x_seconds", 1.0, buckets=(1.0, 2.0))
    reg.observe("repro_x_seconds", 1.5)  # later calls may omit bounds
    [hist] = reg.snapshot(run_collectors=False)["histograms"]
    assert hist["counts"] == [1, 1, 0]
    with pytest.raises(ValueError):
        reg.observe("repro_bad_seconds", 1.0, buckets=(2.0, 1.0))


def test_registry_thread_safety_under_concurrent_increments():
    reg = MetricsRegistry()
    add = reg.counter_group("repro_grouped_{}_total", ("a", "b"))
    threads = 8
    per_thread = 1000

    def worker():
        for _ in range(per_thread):
            reg.inc("repro_contended_total")
            add(a=1, b=2)
            reg.observe("repro_contended_seconds", 0.01, buckets=(1.0,))

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
    [hist] = reg.snapshot(run_collectors=False)["histograms"]
    assert hist["count"] == threads * per_thread
    assert hist["counts"][0] == threads * per_thread


def test_collectors_run_at_snapshot_and_never_raise():
    reg = MetricsRegistry()
    reg.add_collector("ok", lambda r: r.set("repro_ok", 4))
    reg.add_collector("boom", lambda r: 1 / 0)
    snap = reg.snapshot()
    assert any(g["name"] == "repro_ok" for g in snap["gauges"])


def test_global_registry_exports_pair_and_store_cache_counters():
    snap = metrics_registry().snapshot()
    names = {c["name"] for c in snap["counters"]}
    # The pair kernels' and the store read cache's counters are always
    # visible, even at zero.
    assert "repro_pair_index_builds_total" in names
    assert "repro_pair_index_reuses_total" in names
    assert "repro_store_read_cache_hits_total" in names
    assert "repro_store_read_cache_misses_total" in names
    assert set(BUILTIN_COUNTERS) <= names


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def test_prometheus_render_parse_round_trip():
    reg = MetricsRegistry()
    reg.inc("repro_jobs_total", 3, outcome="completed")
    reg.set("repro_queue_depth", 5, depth=0)
    for value in (0.05, 0.5, 5.0):
        reg.observe("repro_job_seconds", value, buckets=(0.1, 1.0))
    text = render_prometheus(reg.snapshot(run_collectors=False))
    doc = parse_prometheus(text)
    assert doc["types"]["repro_jobs_total"] == "counter"
    assert doc["types"]["repro_queue_depth"] == "gauge"
    assert doc["types"]["repro_job_seconds"] == "histogram"
    by_name = {}
    for sample in doc["samples"]:
        by_name.setdefault(sample["name"], []).append(sample)
    [jobs] = by_name["repro_jobs_total"]
    assert jobs["labels"] == {"outcome": "completed"} and jobs["value"] == 3
    buckets = {
        s["labels"]["le"]: s["value"]
        for s in by_name["repro_job_seconds_bucket"]
    }
    # Cumulative buckets, +Inf last.
    assert buckets["0.1"] == 1 and buckets["1"] == 2 and buckets["+Inf"] == 3
    assert by_name["repro_job_seconds_count"][0]["value"] == 3
    assert by_name["repro_job_seconds_sum"][0]["value"] == pytest.approx(5.55)


def test_prometheus_label_escaping_round_trip():
    reg = MetricsRegistry()
    tricky = 'quote " backslash \\ newline \n end'
    reg.inc("repro_esc_total", path=tricky)
    text = render_prometheus(reg.snapshot(run_collectors=False))
    [sample] = parse_prometheus(text)["samples"]
    assert sample["labels"]["path"] == tricky


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("orphan_sample 1\n")  # no # TYPE
    with pytest.raises(ValueError):
        parse_prometheus("# TYPE x counter\nx notanumber\n")


# ---------------------------------------------------------------------------
# HTTP endpoints + file snapshots
# ---------------------------------------------------------------------------

def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode()


def test_metrics_server_endpoints():
    reg = MetricsRegistry()
    reg.inc("repro_http_total", 2)
    with MetricsServer(registry=reg) as server:
        base = f"http://127.0.0.1:{server.port}"
        status, text = _get(f"{base}/metrics")
        assert status == 200
        parsed = parse_prometheus(text)
        assert any(
            s["name"] == "repro_http_total" and s["value"] == 2
            for s in parsed["samples"]
        )
        status, body = _get(f"{base}/metrics.json")
        assert status == 200
        assert json.loads(body)["schema"] == 1
        status, body = _get(f"{base}/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/nope")
        assert err.value.code == 404


def test_write_and_load_metrics_snapshots(tmp_path):
    reg = MetricsRegistry()
    reg.inc("repro_snap_total", 7)
    prom = write_metrics_files(tmp_path, registry=reg)
    assert prom.is_file() and prom.suffix == ".prom"
    parse_prometheus(prom.read_text(encoding="utf-8"))  # valid by parse
    [snap] = load_metrics_snapshots(tmp_path)
    assert any(
        c["name"] == "repro_snap_total" and c["value"] == 7
        for c in snap["counters"]
    )
    # Re-writing replaces (stable per-process names), never accumulates.
    write_metrics_files(tmp_path, registry=reg)
    assert len(load_metrics_snapshots(tmp_path)) == 1


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
                "repro_pair_index_builds_total": 1,
                "repro_pair_index_reuses_total": 3,
            },
        }), encoding="utf-8")
    doc = aggregate_timings(tmp_path)
    assert doc["counters"]["repro_store_read_cache_hits_total"] == 30
    text = render_timings(doc)
    assert "store read cache: 30 hits / 10 misses (75% hit rate)" in text
    assert "index reuse: 2 builds" in text and "6 reuses" in text
    assert "(75% of queries served warm)" in text
    assert text.count("index reuse:") == 1
