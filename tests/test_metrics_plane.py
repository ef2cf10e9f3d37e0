"""Tests for the always-on metrics plane and the crash flight recorder.

Covers the registry contract (labels, histograms, collectors, thread
safety under concurrent increments), the Prometheus text exposition
(render -> parse round-trip, label escaping), the HTTP endpoints and
atomic file snapshots, the flight recorder's bounded ring and crash
dumps (including a real SIGKILLed worker via ``--die-after-claims``),
the ``repro health`` threshold checks and exit codes, the clamped
cluster-status ages, and the ``repro top --json`` / ``repro report
--timings`` surfaces.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import JobQueue, ResultStore, cli, trace_spec
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    MetricsServer,
    cluster_status_doc,
    counter_deltas,
    evaluate_health,
    find_crash_dumps,
    load_crash_dump,
    load_metrics_snapshots,
    metrics_registry,
    parse_prometheus,
    render_blackbox,
    render_cluster_status,
    render_prometheus,
    render_timings,
    write_metrics_files,
)
from repro.telemetry.metrics import BUILTIN_COUNTERS
from repro.telemetry.profile import aggregate_timings

from test_backends import _spawn_worker


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
    health_doc = {"status": "ok", "worker_id": "w-test"}
    with MetricsServer(registry=reg, health=lambda: health_doc) as server:
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
        assert status == 200 and json.loads(body)["worker_id"] == "w-test"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/nope")
        assert err.value.code == 404


def test_metrics_server_unhealthy_is_503():
    with MetricsServer(
        registry=MetricsRegistry(),
        health=lambda: {"status": "unhealthy", "reason": "stalled"},
    ) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"http://127.0.0.1:{server.port}/healthz")
        assert err.value.code == 503
        assert json.loads(err.value.read().decode())["reason"] == "stalled"


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
# flight recorder
# ---------------------------------------------------------------------------

def test_flight_ring_is_bounded():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("job", "start", seq=i)
    events = rec.events()
    assert len(events) == 4
    assert [e["seq"] for e in events] == [6, 7, 8, 9]


def test_flight_capacity_zero_disables(monkeypatch):
    rec = FlightRecorder(capacity=0)
    rec.record("job", "start")
    assert rec.events() == []


def test_flight_dump_and_render(tmp_path):
    rec = FlightRecorder(capacity=8)
    rec.record("claim", "abcdef123456", worker="w-1")
    rec.record("job", "start", key="abcdef123456")
    path = rec.dump(
        tmp_path, "unit-test", error="boom",
        extra={"worker_id": "w-1", "job": "abcdef123456"},
    )
    assert path.parent == tmp_path / "telemetry" / "crash"
    [found] = find_crash_dumps(tmp_path)
    assert found == path
    doc = load_crash_dump(path)
    assert doc["reason"] == "unit-test" and doc["error"] == "boom"
    assert len(doc["events"]) == 2
    assert doc["metrics"]["schema"] == 1  # metrics ride along in the dump
    text = render_blackbox(doc)
    assert "unit-test" in text and "abcdef123456"[:12] in text
    assert "w-1" in text


def test_worker_die_after_claims_leaves_crash_dump(tmp_path):
    """The acceptance path: a SIGKILLed worker leaves a renderable dump."""
    store = ResultStore(tmp_path / "store")
    queue = JobQueue.for_store(store)
    spec = trace_spec("tp2d", "small")
    queue.enqueue(spec)
    proc = _spawn_worker(store.root, "--die-after-claims", "1")
    try:
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - hung worker
            proc.kill()
            proc.wait()
    assert proc.returncode == -9  # SIGKILLed itself while holding the lease
    dumps = find_crash_dumps(store.root)
    assert dumps, "fault-injection SIGKILL must dump the flight recorder"
    doc = load_crash_dump(dumps[-1])
    assert doc["reason"] == "fault-injection-sigkill"
    assert doc["job"] == spec.key()
    kinds = {(e["kind"], e["name"]) for e in doc["events"]}
    assert ("claim", spec.key()[:12]) in kinds
    render_blackbox(doc)  # renders without raising
    # The lease the dead worker held is still on disk: `repro health`
    # must flag it (and the dump) and exit nonzero.
    assert queue.leases(), "SIGKILL must leave the lease behind"
    time.sleep(0.3)  # let the orphaned lease's heartbeat go stale
    verdict = evaluate_health(store, queue, lease_timeout=0.1)
    assert verdict["status"] == "unhealthy"
    failed = {c["name"] for c in verdict["checks"] if not c["ok"]}
    assert "crash_dumps" in failed
    assert "stale_leases" in failed or "stale_workers" in failed
    # blackbox CLI renders it; health CLI exits nonzero.
    assert cli.main(["blackbox", "--cache-dir", str(store.root)]) == 0
    assert cli.main(
        ["health", "--cache-dir", str(store.root), "--lease-timeout", "0.1"]
    ) == 1
    # After triage, --clear makes health's crash check green again.
    assert cli.main(
        ["blackbox", "--cache-dir", str(store.root), "--clear"]
    ) == 0
    assert not find_crash_dumps(store.root)


# ---------------------------------------------------------------------------
# cluster status / health
# ---------------------------------------------------------------------------

class _FakeStore:
    def __init__(self, root):
        self.root = root


def _queue_with_worker(tmp_path, heartbeat_at: float) -> JobQueue:
    queue = JobQueue(tmp_path / "queue")
    queue.register_worker("w-test", now=heartbeat_at)
    return queue


def test_cluster_status_clamps_negative_beat_age(tmp_path):
    """Cross-host clock skew must render as 'just now', not negative."""
    now = time.time()
    queue = _queue_with_worker(tmp_path, heartbeat_at=now + 120.0)
    store = _FakeStore(tmp_path)
    doc = cluster_status_doc(store, queue, now=now)
    [row] = doc["workers"]
    assert row["beat_age_s"] == 0.0
    rendered = render_cluster_status(store, queue, now=now)
    assert "0.0s" in rendered and "-120.0s" not in rendered


def test_cluster_status_clamps_negative_lease_ages(tmp_path):
    now = time.time()
    queue = JobQueue(tmp_path / "queue")
    queue.claim("k" * 64, "w-skew", 0, now=now + 60.0)
    doc = cluster_status_doc(_FakeStore(tmp_path), queue, now=now)
    [lease] = doc["leases"]
    assert lease["age_s"] == 0.0 and lease["beat_age_s"] == 0.0


def test_evaluate_health_ok_on_quiet_cluster(tmp_path):
    queue = _queue_with_worker(tmp_path, heartbeat_at=time.time())
    verdict = evaluate_health(_FakeStore(tmp_path), queue)
    assert verdict["status"] == "ok"
    assert all(c["ok"] for c in verdict["checks"])


def test_evaluate_health_flags_stale_worker_and_stall(tmp_path):
    queue = _queue_with_worker(tmp_path, heartbeat_at=time.time() - 3600.0)
    queue.enqueue(trace_spec("tp2d", "small"))
    verdict = evaluate_health(_FakeStore(tmp_path), queue)
    assert verdict["status"] == "unhealthy"
    failed = {c["name"] for c in verdict["checks"] if not c["ok"]}
    assert failed == {"stale_workers", "queue_stall"}


def test_evaluate_health_flags_retry_spike(tmp_path):
    queue = JobQueue(tmp_path / "queue")
    queue.register_worker("w-live")
    for attempt in range(3):
        queue.fail("a" * 64, "w-live", attempt, "traceback")
    verdict = evaluate_health(
        _FakeStore(tmp_path), queue, max_failures=3
    )
    failed = {c["name"] for c in verdict["checks"] if not c["ok"]}
    assert "retry_spikes" in failed
    # A looser threshold passes.
    assert evaluate_health(
        _FakeStore(tmp_path), queue, max_failures=10
    )["status"] == "ok"


def test_top_json_snapshot(tmp_path, capsys):
    queue = _queue_with_worker(tmp_path / "store", heartbeat_at=time.time())
    queue.enqueue(trace_spec("tp2d", "small"))
    assert cli.main([
        "top", "--json", "--cache-dir", str(tmp_path / "store"),
        "--queue-dir", str(queue.root),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tickets_open"] == 1
    assert doc["workers"][0]["worker_id"] == "w-test"
    assert doc["workers"][0]["state"] == "alive"
    with pytest.raises(SystemExit):
        cli.main([
            "top", "--json", "--watch", "1",
            "--cache-dir", str(tmp_path / "store"),
        ])


def test_worker_rates_join_status_by_host_pid(tmp_path):
    reg = MetricsRegistry()
    reg.started_at -= 30.0  # 30s of uptime
    reg.inc("repro_worker_jobs_total", 10, outcome="completed")
    write_metrics_files(tmp_path, registry=reg)
    [snap] = load_metrics_snapshots(tmp_path)
    queue = JobQueue(tmp_path / "queue")
    queue.register_worker("w-rate")
    # The registry entry carries this process's host/pid — the same
    # identity the snapshot stamps, so the join lands.
    doc = cluster_status_doc(_FakeStore(tmp_path), queue)
    [row] = doc["workers"]
    assert row["jobs_per_min"] == pytest.approx(
        10.0 / (snap["written_at"] - snap["started_at"]) * 60.0
    )
    assert "j/min" in render_cluster_status(_FakeStore(tmp_path), queue)


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
