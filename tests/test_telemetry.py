"""Telemetry: spans, sinks, run profiles, and the no-hash-impact invariant.

The load-bearing guarantees under test:

* **No hash impact** — a sweep executed with ``REPRO_TELEMETRY`` on
  produces bit-identical spec keys, series, and store artifact bytes to
  the same sweep with telemetry off.
* **Determinism** — an injectable fake clock makes two identical
  recordings byte-identical, line for line.
* **Well-formed trees** — event logs written by a cluster sweep that
  survived a SIGKILLed worker still parse, with every closed span
  enclosed by its parent.
* **Chrome schema** — the trace-event projection is loadable JSON with
  the fields chrome://tracing requires.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    ClusterBackend,
    JobQueue,
    ResultStore,
    Worker,
    cli,
    run_spec,
    run_specs,
    sim_spec,
)
from repro.telemetry import (
    TELEMETRY_ENV,
    TelemetryRecorder,
    activate,
    active_recorder,
    chrome_trace,
    deactivate,
    find_run_profiles,
    load_run_profile,
    profile_tree,
    read_jsonl,
    recording,
    render_cluster_status,
    render_profile,
    session,
    span,
    telemetry_active,
    telemetry_mode,
)

NPROCS = 4


class FakeClock:
    """Monotonic stub: each call advances by a fixed tick."""

    def __init__(self, tick: float = 0.25):
        self.t = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.t += self.tick
        return self.t


def _sweep(apps=("tp2d",), partitioners=("nature+fable", "patch-lpt")):
    return [
        sim_spec(app, "small", nprocs=NPROCS, partitioner=part)
        for app in apps
        for part in partitioners
    ]


def _store_file_hashes(store: ResultStore) -> dict:
    """sha256 of every artifact file, keyed by (entry key, file name)."""
    out = {}
    for key, _ in store.iter_results():
        entry = store.entry_dir(key)
        for path in sorted(p for p in entry.iterdir() if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[(key, path.name)] = digest
    return out


# ---------------------------------------------------------------------------
# recorder core
# ---------------------------------------------------------------------------

class TestRecorder:
    def test_fake_clock_is_fully_deterministic(self):
        def scenario() -> list[str]:
            rec = TelemetryRecorder(clock=FakeClock(), meta={"run": 1})
            with rec.span("outer", cat="t", depth=0):
                with rec.span("inner", cat="t", level=0.5):
                    pass
            return [json.dumps(e, sort_keys=True) for e in rec.events]

        assert scenario() == scenario()

    def test_span_tree_parenting_and_close_order(self):
        rec = TelemetryRecorder(clock=FakeClock())
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                with rec.span("leaf"):
                    pass
        names = [e["name"] for e in rec.events]
        # Children close (and therefore log) before their parents.
        assert names == ["leaf", "inner", "outer"]
        by_name = {e["name"]: e for e in rec.events}
        assert by_name["inner"]["parent"] == outer.id
        assert by_name["leaf"]["parent"] == inner.id
        assert by_name["outer"]["parent"] == 0
        assert by_name["inner"]["dur"] >= 0.0
        # The parent interval encloses the child's.
        o, i = by_name["outer"], by_name["inner"]
        assert o["ts"] <= i["ts"]
        assert o["ts"] + o["dur"] >= i["ts"] + i["dur"]

    def test_error_flag_on_raising_span(self):
        rec = TelemetryRecorder(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        (event,) = rec.events
        assert event["error"] is True

    def test_module_level_span_is_free_when_off(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        assert telemetry_mode() == "off"
        assert not telemetry_active()
        # The off-path returns one shared no-op singleton: no allocation,
        # no recording — the <3% disabled-overhead budget.
        a, b = span("anything", cat="x"), span("other")
        assert a is b
        with a as sp:
            sp.annotate(ignored=True)

    def test_activate_is_exclusive(self):
        rec = TelemetryRecorder(clock=FakeClock())
        activate(rec)
        try:
            assert active_recorder() is rec
            with pytest.raises(RuntimeError):
                activate(TelemetryRecorder(clock=FakeClock()))
        finally:
            deactivate()
        assert active_recorder() is None

    def test_recording_harness_scopes_the_global(self):
        with recording(clock=FakeClock()) as rec:
            assert telemetry_active()
            with span("scoped", cat="t"):
                pass
            assert rec.events[0]["name"] == "scoped"
        assert not telemetry_active()


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class TestSinks:
    def _recorded(self) -> TelemetryRecorder:
        rec = TelemetryRecorder(clock=FakeClock(), meta={"session": "t"})
        with rec.span("outer", cat="engine", depth=2):
            with rec.span("inner", cat="kernel", step=3):
                pass
        return rec

    def test_chrome_trace_schema(self):
        doc = chrome_trace(self._recorded(), pid=1234)
        # Loadable JSON with the trace-event required fields.
        doc = json.loads(json.dumps(doc))
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"] == {"session": "t"}
        assert len(doc["traceEvents"]) == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["cat"], str)
            assert event["pid"] == 1234
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0.0  # microseconds
            assert event["dur"] >= 0.0
            assert isinstance(event["args"], dict)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["outer"]["args"] == {"depth": 2}
        assert by_name["inner"]["args"] == {"step": 3}

    def test_session_writes_jsonl_and_chrome_trace(self, tmp_path):
        with session(tmp_path, name="unit test!", mode="chrome",
                     clock=FakeClock(), meta={"suite": "sinks"}) as rec:
            assert active_recorder() is rec
            with span("work", cat="t"):
                pass
        logs = list((tmp_path / "telemetry").glob("*.jsonl"))
        traces = list((tmp_path / "telemetry").glob("*.trace.json"))
        assert len(logs) == 1 and len(traces) == 1
        # The unsafe characters of the session name were sanitized away.
        assert "!" not in logs[0].name and " " not in logs[0].name
        events = read_jsonl(logs[0])
        assert events[0]["type"] == "meta"
        assert events[0]["suite"] == "sinks"
        assert [e["name"] for e in events[1:]] == ["work"]
        trace_doc = json.loads(traces[0].read_text(encoding="utf-8"))
        assert [e["name"] for e in trace_doc["traceEvents"]] == ["work"]

    def test_session_off_is_transparent(self, tmp_path):
        with session(tmp_path, name="noop", mode="off") as rec:
            assert rec is None
            assert not telemetry_active()
        assert not (tmp_path / "telemetry").exists()

    def test_nested_sessions_share_the_outer_recorder(self, tmp_path):
        with session(tmp_path, name="outer", mode="json") as outer:
            with session(tmp_path, name="inner", mode="json") as inner:
                assert inner is outer
        assert len(list((tmp_path / "telemetry").glob("*.jsonl"))) == 1


# ---------------------------------------------------------------------------
# the no-hash-impact invariant
# ---------------------------------------------------------------------------

class TestNoHashImpact:
    def test_sweep_is_bit_identical_with_telemetry_on(
        self, tmp_path, monkeypatch
    ):
        specs = _sweep()
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        keys_off = [spec.key() for spec in specs]
        store_off = ResultStore(tmp_path / "off")
        results_off = run_specs(specs, store=store_off)

        monkeypatch.setenv(TELEMETRY_ENV, "chrome")
        keys_on = [spec.key() for spec in specs]
        store_on = ResultStore(tmp_path / "on")
        results_on = run_specs(specs, store=store_on)

        # Spec keys, series, and artifact bytes: all bit-identical.
        assert keys_on == keys_off
        for off, on in zip(results_off, results_on):
            assert off.key == on.key
            for name in off.arrays:
                assert np.array_equal(off.arrays[name], on.arrays[name])
        assert _store_file_hashes(store_off) == _store_file_hashes(store_on)
        # ... while the instrumented run really did record something.
        assert find_run_profiles(store_on.root)
        assert not find_run_profiles(store_off.root)
        # Telemetry artifacts never surface as store entries.
        assert dict(store_off.iter_results()).keys() == (
            dict(store_on.iter_results()).keys()
        )


# ---------------------------------------------------------------------------
# run profiles and the CLI surfaces
# ---------------------------------------------------------------------------

class TestProfiles:
    def test_run_scope_profile_and_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        spec = sim_spec("tp2d", "small", nprocs=NPROCS,
                        partitioner="nature+fable")
        store = ResultStore(tmp_path / "store")
        run_spec(spec, store=store)

        doc = load_run_profile(store.root, spec.key()[:12])
        assert doc["key"] == spec.key()
        assert doc["wall_s"] > 0.0
        names = {e["name"] for e in doc["spans"] if e["type"] == "span"}
        # The tree reaches from the run root down into the kernels.
        assert {"run", "sim.partition", "sim.measure_step"} <= names
        assert doc["schema"] == 2
        assert doc["counters"]["repro_pair_queries_total"] > 0
        tree = profile_tree(doc["spans"])
        assert tree[0]["name"] == "run"
        rendered = render_profile(doc)
        assert "sim.measure_step" in rendered and "pruning" in rendered

        assert cli.main(["profile", spec.key()[:12],
                         "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert spec.key()[:12] in out and "sim.partition" in out
        assert cli.main(["profile", spec.key()[:12], "--json",
                         "--cache-dir", str(store.root)]) == 0
        assert json.loads(capsys.readouterr().out)["key"] == spec.key()

        assert cli.main(["report", "--timings",
                         "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "profiled runs" in out and "sim.measure_step" in out

    def test_profile_cli_errors(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        assert cli.main(["profile", "deadbeef",
                         "--cache-dir", str(store.root)]) == 1
        assert "no run profile" in capsys.readouterr().err
        assert cli.main(["report", "--timings",
                         "--cache-dir", str(store.root)]) == 1
        assert "no run profiles" in capsys.readouterr().err

    def test_failed_run_leaves_no_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        store = ResultStore(tmp_path / "store")
        spec = sim_spec("tp2d", "small", nprocs=NPROCS,
                        partitioner="nature+fable")
        from repro.engine.backends.worker import FAIL_KEYS_ENV

        monkeypatch.setenv(FAIL_KEYS_ENV, spec.key())
        worker = Worker(store)
        queue = worker.queue
        queue.enqueue(spec, max_attempts=1)
        # Drive one claim/fail cycle by hand.
        ticket = worker._claim_next()
        assert ticket is not None
        worker._process(ticket)
        assert worker.jobs_failed == 1
        assert find_run_profiles(store.root) == []


# ---------------------------------------------------------------------------
# cluster end-to-end: profiles, top, crash-surviving span trees
# ---------------------------------------------------------------------------

def _worker_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.update(extra or {})
    return env


def _spawn_worker(
    store_root, *extra: str, env_extra: dict | None = None
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "worker",
        "--cache-dir", str(store_root),
        "--poll-interval", "0.05",
        "--heartbeat-interval", "0.2",
        "--idle-timeout", "60",
        "--quiet",
    ]
    return subprocess.Popen(
        command + list(extra),
        env=_worker_env(env_extra),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _assert_well_formed(events: list[dict]) -> None:
    """Schema + tree invariants of one JSONL event log."""
    assert events, "empty event log"
    assert events[0]["type"] == "meta"
    spans = [e for e in events[1:] if e["type"] == "span"]
    ids = [e["id"] for e in spans]
    assert len(ids) == len(set(ids)), "duplicate span ids"
    by_id = {e["id"]: e for e in spans}
    for e in events[1:]:
        assert e["type"] in ("span", "counter", "gauge")
        assert e["ts"] >= 0.0
        if e["type"] == "span":
            assert e["dur"] >= 0.0
            parent = by_id.get(e["parent"])
            if parent is not None:
                # A closed parent encloses its closed children.
                assert parent["ts"] <= e["ts"] + 1e-9
                assert (parent["ts"] + parent["dur"]
                        >= e["ts"] + e["dur"] - 1e-9)


class TestClusterTelemetry:
    def test_cluster_sweep_profiles_and_top(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        specs = _sweep()
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        worker = Worker(store, queue, poll_interval=0.02,
                        heartbeat_interval=0.1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        backend = ClusterBackend(lease_timeout=10.0, poll_interval=0.05,
                                 stall_timeout=60.0)
        try:
            results = run_specs(specs, store=store, backend=backend)
        finally:
            worker.stop()
            thread.join(timeout=10.0)
        assert [r.key for r in results] == [s.key() for s in specs]

        # Every executed job left a run profile `repro profile` can render.
        profiled = {p.stem for p in find_run_profiles(store.root)}
        assert {s.key() for s in specs} <= profiled
        assert cli.main(["profile", specs[0].key()[:12],
                         "--cache-dir", str(store.root)]) == 0
        assert "worker.job" not in capsys.readouterr().out  # run subtree only

        # `repro top` renders the queue/worker state of the same store.
        queue.register_worker("w-test")
        try:
            assert cli.main(["top", "--cache-dir", str(store.root)]) == 0
            out = capsys.readouterr().out
            assert "w-test" in out and "alive" in out
            assert "0 open tickets" in out
        finally:
            queue.unregister_worker("w-test")

    def test_span_trees_survive_worker_crash_and_requeue(self, tmp_path):
        specs = _sweep(apps=("tp2d", "bl2d"))
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        telemetry = {"REPRO_TELEMETRY": "json"}
        # A kamikaze worker SIGKILLs itself after its first claim while
        # holding the lease; a healthy worker finishes the sweep.
        kamikaze = _spawn_worker(store.root, "--die-after-claims", "1",
                                 env_extra=telemetry)
        healthy = _spawn_worker(store.root, env_extra=telemetry)
        try:
            deadline = time.time() + 60.0
            while not queue.alive_workers(30.0):
                assert time.time() < deadline, "workers never registered"
                time.sleep(0.05)
            backend = ClusterBackend(lease_timeout=1.5, poll_interval=0.1,
                                     stall_timeout=180.0, max_attempts=3)
            results = run_specs(specs, store=store, backend=backend)
        finally:
            kamikaze.wait(timeout=30.0)
            healthy.terminate()
            healthy.wait(timeout=30.0)
        assert kamikaze.returncode == -9
        assert [r.key for r in results] == [s.key() for s in specs]

        # Every event log the cluster left behind — including anything
        # the crashed worker managed to flush — parses and nests.
        logs = list((Path(store.root) / "telemetry").glob("*.jsonl"))
        assert logs, "cluster sweep wrote no event logs"
        all_spans: list[dict] = []
        for log in logs:
            events = read_jsonl(log)
            _assert_well_formed(events)
            all_spans += [e for e in events if e.get("type") == "span"]
        jobs = [e for e in all_spans if e["name"] == "worker.job"]
        done = [e for e in jobs if e["attrs"].get("outcome") == "completed"]
        # The healthy worker completed every job exactly once (the
        # kamikaze died before executing its claim).
        expected = {s.key()[:12] for s in specs} | {
            dep.key()[:12] for s in specs for dep in s.inputs()
        }
        assert len(done) == len(expected)
        assert {e["attrs"]["key"] for e in done} == expected

    def test_top_watch_snapshot_renderer(self, tmp_path):
        # render_cluster_status is what --watch redraws; exercise the
        # lease/waiting/failure sections without a live cluster.
        store = ResultStore(tmp_path / "store")
        queue = JobQueue.for_store(store)
        spec = _sweep()[0]
        queue.enqueue(spec, max_attempts=3)
        queue.register_worker("w-1")
        assert queue.claim(spec.key(), "w-1", attempt=0)
        queue.fail(spec.key(), "w-1", 0, "trace")
        out = render_cluster_status(store, queue, lease_timeout=30.0)
        assert "1 open tickets" in out
        assert "w-1" in out
        assert spec.key()[:12] in out
        assert "failures (1 records)" in out
