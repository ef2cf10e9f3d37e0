"""Telemetry: spans, sinks, run profiles, failure records, and the
no-hash-impact invariant.

The load-bearing guarantees under test:

* **No hash impact** — a sweep executed with ``REPRO_TELEMETRY`` on
  produces bit-identical spec keys, series, and store artifact bytes to
  the same sweep with telemetry off.
* **Determinism** — an injectable fake clock makes two identical
  recordings byte-identical, event for event.
* **One record per run** — in this process and in pool workers alike,
  each executed spec leaves exactly one run profile (plus, in
  ``chrome`` mode, one Chrome trace) and nothing else; its span tree is
  well formed, rooted at one ``run`` span, and holds the run's publish.
* **One failure record** — a run that raises leaves its profile with
  the error and traceback, in this process or in a pool worker,
  telemetry on or off, and a later success retires it.
* **Chrome schema** — the trace-event projection is loadable JSON with
  the fields chrome://tracing requires.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.engine import (
    ResultStore,
    cli,
    executor,
    paper_trace,
    penalties_spec,
    run_spec,
    run_specs,
    sim_spec,
    trace_spec,
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
    metrics_registry,
    profile_tree,
    render_profile,
    run_profile_path,
    span,
    telemetry_active,
    telemetry_mode,
)
from repro.telemetry.sinks import write_json_atomic

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
            rec = TelemetryRecorder(clock=FakeClock())
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

    def test_annotate_attaches_attrs_before_close(self):
        rec = TelemetryRecorder(clock=FakeClock())
        with rec.span("phase", cat="t", step=1) as sp:
            sp.annotate(cells=64, step=2)
        (event,) = rec.events
        assert event["attrs"] == {"step": 2, "cells": 64}

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


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class TestSinks:
    def _recorded(self) -> TelemetryRecorder:
        rec = TelemetryRecorder(clock=FakeClock())
        with rec.span("outer", cat="engine", depth=2):
            with rec.span("inner", cat="kernel", step=3):
                pass
        return rec

    def test_chrome_trace_schema(self):
        doc = chrome_trace(self._recorded().events, meta={"session": "t"},
                           pid=1234)
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

    def test_write_json_atomic_replaces_or_leaves_the_old_file(
        self, tmp_path
    ):
        path = tmp_path / "deep" / "doc.json"
        write_json_atomic(path, {"b": 1, "a": [2]})
        assert path.read_text(encoding="utf-8") == '{"a": [2], "b": 1}'
        write_json_atomic(path, {"c": 3})
        assert json.loads(path.read_text(encoding="utf-8")) == {"c": 3}
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        # The failed write left the previous document and no staging file.
        assert json.loads(path.read_text(encoding="utf-8")) == {"c": 3}
        assert sorted(p.name for p in path.parent.iterdir()) == ["doc.json"]


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


# ---------------------------------------------------------------------------
# one record per run, in this process and in pool workers
# ---------------------------------------------------------------------------

def _assert_well_formed(events: list[dict]) -> None:
    """Schema + tree invariants of one run profile's spans."""
    assert events, "empty span list"
    stray = {e["type"] for e in events} - {"span"}
    assert not stray, f"stray event types {stray}"
    ids = [e["id"] for e in events]
    assert len(ids) == len(set(ids)), "duplicate span ids"
    by_id = {e["id"]: e for e in events}
    for e in events:
        assert e["ts"] >= 0.0
        assert e["dur"] >= 0.0
        parent = by_id.get(e["parent"])
        if parent is not None:
            # A closed parent encloses its closed children.
            assert parent["ts"] <= e["ts"] + 1e-9
            assert (parent["ts"] + parent["dur"]
                    >= e["ts"] + e["dur"] - 1e-9)
    # Every span descends from the one ``run`` root.
    roots = [e for e in events if e["parent"] not in by_id]
    assert [e["name"] for e in roots] == ["run"]


def _recorded_sweep(tmp_path, monkeypatch, mode: str, n_jobs: int):
    """Run tp2d and bl2d sims plus one penalties spec under ``mode``.

    Returns the store and the keys of every executed spec: the submitted
    ones and their trace inputs.
    """
    monkeypatch.setenv(TELEMETRY_ENV, mode)
    specs = _sweep(apps=("tp2d", "bl2d")) + [
        penalties_spec("tp2d", "small", nprocs=NPROCS)
    ]
    store = ResultStore(tmp_path / "store")
    run_specs(specs, store=store, n_jobs=n_jobs)
    executed = {s.key() for s in specs} | {
        dep.key() for s in specs for dep in s.inputs()
    }
    return store, executed


def _assert_one_profile_per_entry(store, n_entries: int) -> None:
    """Each of the store's ``n_entries`` entries left one run profile,
    and only a trace's holds ``trace.generate``."""
    entries = {key for key, _ in store.iter_results()}
    profiles = {path.stem for path in find_run_profiles(store.root)}
    assert len(entries) == n_entries
    assert profiles == entries
    for key in entries:
        doc = load_run_profile(store.root, key)
        names = {e["name"] for e in doc["spans"]}
        assert ("trace.generate" in names) == (doc["kind"] == "trace")


class TestRunRecords:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_one_run_profile_per_executed_spec(
        self, tmp_path, monkeypatch, n_jobs
    ):
        store, executed = _recorded_sweep(tmp_path, monkeypatch, "json",
                                          n_jobs)
        assert not telemetry_active()  # each run deactivated its recorder
        runs: list[str] = []
        for path in find_run_profiles(store.root):
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["outcome"] == "completed"
            _assert_well_formed(doc["spans"])
            runs += [e["attrs"]["key"] for e in doc["spans"]
                     if e["name"] == "run"]
        # Every executed spec, its trace inputs included, exactly once.
        assert sorted(runs) == sorted(key[:12] for key in executed)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("mode", ["json", "chrome"])
    def test_telemetry_holds_only_the_run_records(
        self, tmp_path, monkeypatch, mode, n_jobs
    ):
        store, executed = _recorded_sweep(tmp_path, monkeypatch, mode,
                                          n_jobs)
        root = store.root / "telemetry"
        written = sorted(
            str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()
        )
        expected = [
            str(run_profile_path(store.root, key).relative_to(root))
            for key in executed
        ]
        if mode == "chrome":
            expected += [f"traces/{key}.trace.json" for key in executed]
        assert written == sorted(expected)
        if mode == "chrome":
            for key in executed:
                doc = json.loads(
                    (root / "traces" / f"{key}.trace.json").read_text(
                        encoding="utf-8"
                    )
                )
                events = doc["traceEvents"]
                assert events and all(e["ph"] == "X" for e in events)
                profile = load_run_profile(store.root, key)
                assert len(events) == len(profile["spans"])
                assert doc["otherData"]["key"] == key

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_each_result_profile_holds_its_publish(
        self, tmp_path, monkeypatch, n_jobs
    ):
        store, executed = _recorded_sweep(tmp_path, monkeypatch, "json",
                                          n_jobs)
        published = {}
        for key in executed:
            doc = load_run_profile(store.root, key)
            published[doc["kind"]] = published.get(doc["kind"], 0) + 1
            puts = [e for e in doc["spans"] if e["name"] == "store.put_result"]
            if doc["kind"] == "trace":
                assert puts == []
                continue
            [put] = puts
            assert put["attrs"]["key"] == key[:12]
            [root] = [e for e in doc["spans"] if e["name"] == "run"]
            assert put["parent"] == root["id"]
        assert published == {"trace": 2, "sim": 4, "penalties": 1}

    def test_repro_run_leaves_one_profile_per_entry(
        self, tmp_path, monkeypatch
    ):
        """A cold ``repro run`` computes the missing trace as its own run:
        the trace and the sim each leave one profile, holding its spans."""
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        store = ResultStore(tmp_path / "store")
        assert cli.main(["run", "--app", "tp2d", "--scale", "small",
                         "--cache-dir", str(store.root)]) == 0
        _assert_one_profile_per_entry(store, 2)

    def test_read_back_fallback_leaves_one_profile_per_entry(
        self, tmp_path, monkeypatch
    ):
        """A stored sim whose series reads back corrupt, with its trace
        gone, is planned again: the trace is its own run, not the sim's."""
        store = ResultStore(tmp_path / "store")
        spec = sim_spec("tp2d", "small", nprocs=NPROCS)
        run_specs([spec], store=store)
        (store.entry_dir(spec.key()) / "series.npz").write_bytes(b"junk")
        assert store.remove(trace_spec("tp2d", "small").key())
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        with pytest.warns(RuntimeWarning, match="series.npz unreadable"):
            run_specs([spec], store=store)
        _assert_one_profile_per_entry(store, 2)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_corrupt_stored_trace_heals_in_one_sweep(
        self, tmp_path, monkeypatch, n_jobs
    ):
        """A stored trace that turns out corrupt is retired by the first
        sim that reads it; the sims that lost it are planned again in
        the same call, behind the trace's own run."""
        sims = [sim_spec("tp2d", "small", nprocs=n) for n in (NPROCS, 8)]
        expected = run_specs(sims, store=ResultStore(tmp_path / "clean"))
        store = ResultStore(tmp_path / "store")
        paper_trace("tp2d", "small", store=store)
        path = store.entry_dir(trace_spec("tp2d", "small").key())
        path = path / "trace.json.gz"
        path.write_bytes(path.read_bytes()[:100])
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_specs(sims, store=store, n_jobs=n_jobs)
        if n_jobs == 1:  # a pool worker warns in its own process
            assert any("trace.json.gz unreadable" in str(w.message)
                       for w in caught)
        for got, want in zip(results, expected):
            assert got.key == want.key
            assert np.array_equal(got.arrays["time"], want.arrays["time"])
        _assert_one_profile_per_entry(store, 3)
        for key, _ in store.iter_results():
            assert load_run_profile(store.root, key)["outcome"] == "completed"

    def test_cold_paper_trace_is_its_own_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        store = ResultStore(tmp_path / "store")
        runs = metrics_registry().counter_value(
            "repro_runs_total", kind="trace", outcome="completed"
        )
        paper_trace("tp2d", "small", store=store)
        _assert_one_profile_per_entry(store, 1)
        assert metrics_registry().counter_value(
            "repro_runs_total", kind="trace", outcome="completed"
        ) == runs + 1


# ---------------------------------------------------------------------------
# failure records
# ---------------------------------------------------------------------------

def _poisoned(partitioner: str = "nature+fable"):
    """A spec whose partitioner rejects its parameters at execute time."""
    return sim_spec("tp2d", "small", nprocs=NPROCS, partitioner=partitioner,
                    params={"warp_factor": 9})


def _assert_failure_record(store, spec) -> dict:
    doc = load_run_profile(store.root, spec.key())
    assert doc["schema"] == 2
    assert doc["outcome"] == "failed"
    assert doc["key"] == spec.key()
    assert doc["spec"] == spec.to_json()
    assert doc["error"].startswith("ValueError: unknown parameter")
    assert "warp_factor" in doc["error"]
    assert doc["traceback"].startswith("Traceback")
    assert doc["wall_s"] >= 0.0
    assert isinstance(doc["counters"], dict)
    return doc


def _fail_once(monkeypatch, exc: BaseException) -> None:
    """Make the next execution raise ``exc``; later ones run normally."""
    real = executor._compute

    def flaky(spec, store):
        monkeypatch.setattr(executor, "_compute", real)
        raise exc

    monkeypatch.setattr(executor, "_compute", flaky)


class TestFailureRecords:
    @pytest.mark.parametrize("mode", ["off", "json"])
    def test_serial_failure_leaves_a_record(self, tmp_path, monkeypatch, mode):
        monkeypatch.setenv(TELEMETRY_ENV, mode)
        store = ResultStore(tmp_path / "store")
        spec = _poisoned()
        with pytest.raises(ValueError, match="warp_factor"):
            run_specs([spec], store=store)
        assert not telemetry_active()
        doc = _assert_failure_record(store, spec)
        assert not store.has(spec.key())
        names = [e["name"] for e in doc["spans"]]
        if mode == "off":
            assert names == []
        else:
            # The partial span tree: the run root closed with the error.
            [root] = [e for e in doc["spans"] if e["name"] == "run"]
            assert root["error"] is True

    def test_runs_total_counts_each_outcome(self, tmp_path):
        registry = metrics_registry()

        def runs(outcome: str) -> float:
            return registry.counter_value(
                "repro_runs_total", kind="sim", outcome=outcome
            )

        before = runs("completed"), runs("failed")
        store = ResultStore(tmp_path / "store")
        run_spec(_sweep()[0], store=store)
        with pytest.raises(ValueError):
            run_spec(_poisoned(), store=store)
        assert (runs("completed"), runs("failed")) == (
            before[0] + 1, before[1] + 1
        )

    def test_telemetry_off_writes_only_the_record(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        store = ResultStore(tmp_path / "store")
        spec = _poisoned()
        with pytest.raises(ValueError):
            run_specs([_sweep()[0], spec], store=store)
        written = sorted(
            str(p.relative_to(store.root))
            for p in (store.root / "telemetry").rglob("*") if p.is_file()
        )
        assert written == [
            str(run_profile_path(store.root, spec.key())
                .relative_to(store.root))
        ]

    def test_process_pool_worker_writes_the_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = [_poisoned("nature+fable"), _poisoned("patch-lpt")]
        with pytest.raises(ValueError, match="warp_factor"):
            run_specs(specs, store=store, n_jobs=2)
        for spec in specs:
            _assert_failure_record(store, spec)

    def test_cli_flags_and_renders_the_record(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        code = cli.main([
            "run", "--app", "tp2d", "--scale", "small", "--nprocs",
            str(NPROCS), "--param", "warp_factor=9", "--cache-dir", store_dir,
        ])
        assert code == 2
        capsys.readouterr()
        key = _poisoned().key()

        assert cli.main(["cache", "ls", "--cache-dir", store_dir]) == 0
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines()
                  if line.startswith("FAILED")]
        assert failed == [
            f"FAILED {key[:12]} {_poisoned().label()}: "
            f"{load_run_profile(store_dir, key)['error']}"
        ]
        assert cli.main(["cache", "ls", "--json",
                         "--cache-dir", store_dir]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [doc["kind"] for doc in listed] == ["trace"]

        assert cli.main(["profile", key[:12], "--cache-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "FAILED: ValueError: unknown parameter" in out
        traceback_tail = load_run_profile(store_dir, key)["traceback"]
        assert all(
            line in out for line in traceback_tail.rstrip().splitlines()[-3:]
        )
        assert out.index("FAILED") < out.index("span")

    @pytest.mark.parametrize("mode", ["off", "json"])
    def test_later_success_retires_the_record(
        self, tmp_path, monkeypatch, mode
    ):
        monkeypatch.setenv(TELEMETRY_ENV, mode)
        store = ResultStore(tmp_path / "store")
        spec = _sweep()[0]
        # Warm the trace, whose own run would otherwise take the failure.
        run_spec(trace_spec(spec.app, spec.scale), store=store)
        _fail_once(monkeypatch, RuntimeError("disk on fire"))
        with pytest.raises(RuntimeError, match="disk on fire"):
            run_spec(spec, store=store)
        path = run_profile_path(store.root, spec.key())
        failed = json.loads(path.read_text(encoding="utf-8"))
        assert failed["error"] == "RuntimeError: disk on fire"

        run_spec(spec, store=store)
        assert store.has(spec.key())
        if mode == "off":
            assert not path.exists()
        else:
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["outcome"] == "completed"
            assert "error" not in doc and "traceback" not in doc

    def test_keyboard_interrupt_writes_nothing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        _fail_once(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_spec(_sweep()[0], store=store)
        assert find_run_profiles(store.root) == []

    def test_report_timings_counts_failed_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(TELEMETRY_ENV, "json")
        store = ResultStore(tmp_path / "store")
        run_spec(_sweep()[0], store=store)
        with pytest.raises(ValueError):
            run_spec(_poisoned("patch-lpt"), store=store)
        assert cli.main(["report", "--timings",
                         "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        # The trace's run, the sim's and the failed sim's.
        assert out.startswith("3 profiled runs (1 failed)")
