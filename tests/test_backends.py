"""Tests for the one run path of ``run_specs`` and for store hardening.

Covers how ``n_jobs`` picks this process or one pool (and when no pool
starts), bit-identical stores from ``n_jobs=1`` and ``n_jobs=2``, the
retirement of the execution-backend layer and of entry-point plugin
discovery, the benchmark harness's ``backend="serial"`` seam, and the
store's failure paths: corrupt or truncated entries degrade to cache
misses and self-repair instead of crashing, and concurrent publishes of
one key leave one sound entry.
"""

from __future__ import annotations

import errno
import gzip
import hashlib
import importlib.util
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro.engine
import repro.registry
from repro.engine import (
    ResultStore,
    executor,
    run_spec,
    run_specs,
    sim_spec,
    trace_spec,
)
from repro.engine import cli
from repro.experiments import clear_trace_cache, paper_trace
from repro.registry import registry

NPROCS = 4


def _sweep(apps=("tp2d",), partitioners=("nature+fable", "patch-lpt")):
    return [
        sim_spec(app, "small", nprocs=NPROCS, partitioner=part)
        for app in apps
        for part in partitioners
    ]


def _child_env() -> dict:
    """This interpreter's environment, with ``repro`` importable."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _store_file_hashes(store: ResultStore) -> dict:
    """sha256 of every artifact file, keyed by (entry key, file name)."""
    out = {}
    for key, _ in store.iter_results():
        entry = store.entry_dir(key)
        for path in sorted(p for p in entry.iterdir() if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[(key, path.name)] = digest
    return out


class TestLocalBackends:
    def test_serial_backend_matches_default(self, tmp_path):
        specs = _sweep()
        a = run_specs(specs, store=ResultStore(tmp_path / "a"))
        b = run_specs(specs, store=ResultStore(tmp_path / "b"),
                      backend="serial")
        for left, right in zip(a, b):
            assert left.key == right.key
            for name in left.arrays:
                assert np.array_equal(left.arrays[name], right.arrays[name])

    def test_process_backend_bit_identical_to_serial(self, tmp_path):
        specs = _sweep(apps=("tp2d", "bl2d"))
        run_specs(specs, store=ResultStore(tmp_path / "ser"))
        run_specs(specs, store=ResultStore(tmp_path / "proc"), n_jobs=2)
        ser = _store_file_hashes(ResultStore(tmp_path / "ser"))
        proc = _store_file_hashes(ResultStore(tmp_path / "proc"))
        assert ser == proc

    @pytest.mark.parametrize("backend", ["process", object()],
                             ids=["process", "object"])
    def test_backend_seam_accepts_only_serial(self, tmp_path, backend):
        with pytest.raises(ValueError, match="backend must be None or"):
            run_specs([], store=ResultStore(tmp_path / "s"), backend=backend)

    def test_n_jobs_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_specs(_sweep(), store=ResultStore(tmp_path / "z"), n_jobs=0)

    def test_one_pending_job_starts_no_pool(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "one")
        spec = sim_spec("tp2d", "small", nprocs=NPROCS)
        run_specs([trace_spec("tp2d", "small")], store=store)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for one pending job")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
        lines: list[str] = []
        (result,) = run_specs([spec], store=store, n_jobs=2,
                              progress=lines.append)
        assert result.key == spec.key()
        assert lines[-1] == f"computed {spec.label()}"

    def test_one_spec_layers_run_in_this_process(self, tmp_path, monkeypatch):
        pool_events: list[str] = []

        class NoSubmitPool:
            def __init__(self, max_workers):
                pool_events.append(f"start {max_workers}")

            def submit(self, *args, **kwargs):
                raise AssertionError("a one-spec layer went to the pool")

            def shutdown(self):
                pool_events.append("shutdown")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", NoSubmitPool)
        spec = sim_spec("tp2d", "small", nprocs=NPROCS)
        lines: list[str] = []
        run_specs([spec], store=ResultStore(tmp_path / "cold"), n_jobs=2,
                  progress=lines.append)
        # Two pending jobs open the plan's one pool, and it is shut down.
        assert pool_events == ["start 2", "shutdown"]
        assert lines[1:] == [
            "layer 0: 1 jobs",
            f"computed {trace_spec('tp2d', 'small').label()}",
            "layer 1: 1 jobs",
            f"computed {spec.label()}",
        ]

    def test_forced_pool_run_republishes_the_same_bytes(self, tmp_path):
        # Two traces make a trace layer the pool runs: each forced trace
        # is removed and regenerated inside its own run.
        specs = _sweep() + [
            trace_spec("tp2d", "small"), trace_spec("bl2d", "small")
        ]
        hashes = []
        for n_jobs in (1, 2):
            store = ResultStore(tmp_path / f"force-{n_jobs}")
            run_specs(specs, store=store, n_jobs=n_jobs)
            markers = [store.entry_dir(s.key()) / "stale" for s in specs]
            for marker in markers:
                marker.touch()
            lines: list[str] = []
            run_specs(specs, store=store, n_jobs=n_jobs, force=True,
                      progress=lines.append)
            shards = [line for line in lines if line.startswith("shard ")]
            assert bool(shards) == (n_jobs > 1)
            # Every forced spec was published anew, as a whole entry ...
            assert not [m for m in markers if m.exists()]
            hashes.append(_store_file_hashes(store))
        # ... with the same bytes on both paths.
        assert hashes[0] == hashes[1]


class TestRetirement:
    """The execution-backend layer and entry-point discovery are gone."""

    def test_backend_kind_is_unknown(self):
        with pytest.raises(ValueError, match="unknown component kind"):
            registry("backend")

    def test_removed_names_are_gone(self):
        for name in ("ExecutionBackend", "SerialBackend", "ProcessBackend",
                     "resolve_backend", "load_plugins", "BACKEND_NAMES"):
            assert not hasattr(repro.engine, name), name
            assert name not in repro.engine.__all__, name
        assert importlib.util.find_spec("repro.engine.backends") is None
        for name in ("load_plugins", "declare_kind", "PLUGIN_GROUP",
                     "component_kinds"):
            assert not hasattr(repro.registry, name), name
        assert repro.registry.COMPONENT_KINDS == (
            "app", "partitioner", "schedule", "machine", "scale"
        )

    @pytest.mark.parametrize("argv", [
        ["sweep", "--backend", "serial"],
        ["run", "--app", "tp2d", "--backend", "serial"],
        ["plan", "--backend", "process"],
        ["plan", "--n-jobs", "2"],
        ["sweep", "--verbose"],
    ], ids=" ".join)
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_entry_point_scan(self):
        probe = (
            "import contextlib, io, importlib.metadata as md\n"
            "calls = []\n"
            "real = md.entry_points\n"
            "def spy(*args, **kwargs):\n"
            "    calls.append(kwargs.get('group'))\n"
            "    return real(*args, **kwargs)\n"
            "md.entry_points = spy\n"
            "import repro.engine.cli, repro.experiments\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert repro.engine.cli.main(['describe']) == 0\n"
            "print(calls)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=120, env=_child_env(),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def _race_publish(root: str, result, overwrite: bool, barrier) -> None:
    """Concurrent-publish racer: line up, then publish one result."""
    barrier.wait(timeout=60)
    ResultStore(root).put_result(result, overwrite=overwrite)


#: Where the truncation test cuts a file of ``n`` bytes.
_CUTS = {
    "0": lambda n: 0,
    "1": lambda n: 1,
    "half": lambda n: n // 2,
    "len-1": lambda n: n - 1,
}


class TestStoreHardening:
    def _stored_sim(self, tmp_path) -> tuple[ResultStore, str]:
        store = ResultStore(tmp_path / "store")
        spec = sim_spec("tp2d", "small", nprocs=NPROCS)
        run_spec(spec, store=store)
        return store, spec.key()

    def test_truncated_series_is_a_miss(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        series = store.entry_dir(key) / "series.npz"
        series.write_bytes(series.read_bytes()[:100])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get_result(key) is None
        assert not store.has(key)  # husk retired: next publish repairs

    def test_missing_series_is_a_miss(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        (store.entry_dir(key) / "series.npz").unlink()
        with pytest.warns(RuntimeWarning, match="missing"):
            assert store.get_result(key) is None

    def test_run_spec_recomputes_after_corruption(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        before = store.get_result(key)
        series = store.entry_dir(key) / "series.npz"
        series.write_bytes(b"not a zipfile")
        with pytest.warns(RuntimeWarning):
            after = run_spec(sim_spec("tp2d", "small", nprocs=NPROCS),
                             store=store)
        assert np.array_equal(before.arrays["time"], after.arrays["time"])
        assert store.has(key)  # repaired in place
        result = store.get_result(key)
        assert result is not None

    def test_truncated_trace_regenerates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace = paper_trace("tp2d", "small", store=store)
        key = trace_spec("tp2d", "small").key()
        path = store.entry_dir(key) / "trace.json.gz"
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        clear_trace_cache(store=store, memory_only=True)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            regenerated = paper_trace("tp2d", "small", store=store)
        assert regenerated.name == trace.name
        assert len(regenerated) == len(trace)
        # The republished artifact is whole again.
        assert store.entry_dir(key).joinpath("trace.json.gz").read_bytes() == payload

    def test_partially_deleted_trace_entry_regenerates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        paper_trace("tp2d", "small", store=store)
        key = trace_spec("tp2d", "small").key()
        (store.entry_dir(key) / "trace.json.gz").unlink()
        clear_trace_cache(store=store, memory_only=True)
        with pytest.warns(RuntimeWarning, match="missing"):
            paper_trace("tp2d", "small", store=store)
        assert (store.entry_dir(key) / "trace.json.gz").is_file()

    def test_publish_over_metaless_husk(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        (store.entry_dir(key) / "meta.json").unlink()
        assert not store.has(key)
        run_spec(sim_spec("tp2d", "small", nprocs=NPROCS), store=store)
        assert store.has(key)

    def test_verify_reports_and_removes(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        trace_key = trace_spec("tp2d", "small").key()
        assert store.verify() == []
        # Corrupt the sim series, the trace artifact, and strand a stage.
        (store.entry_dir(key) / "series.npz").write_bytes(b"junk")
        gz = store.entry_dir(trace_key) / "trace.json.gz"
        gz.write_bytes(gz.read_bytes()[:24])
        stray = store.root / "tmp" / "deadbeef.1234"
        stray.mkdir(parents=True)
        problems = store.verify()
        kinds = sorted(p["problem"].split(":")[0] for p in problems)
        assert len(problems) == 3
        assert any("series.npz" in p["problem"] for p in problems)
        assert any("trace.json.gz" in p["problem"] for p in problems)
        assert any("staging" in p["problem"] for p in problems)
        assert all(not p["removed"] for p in problems), kinds
        removed = store.verify(remove=True)
        assert all(p["removed"] for p in removed)
        assert store.verify() == []
        assert not store.has(key)

    def test_verify_flags_unparsable_meta(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        (store.entry_dir(key) / "meta.json").write_text("{nope", "utf-8")
        (problem,) = store.verify()
        assert problem["key"] == key
        assert "unparsable meta.json" in problem["problem"]

    def test_unparsable_meta_is_a_corrupt_miss(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        (store.entry_dir(key) / "meta.json").write_text("{nope", "utf-8")
        with pytest.warns(RuntimeWarning, match="unparsable meta.json"):
            assert store.get_result(key) is None
        assert not store.has(key)  # husk retired: the plan sees a miss

    @pytest.mark.parametrize("document", ["[]", "3", '"x"', "null"])
    def test_meta_that_is_not_an_object_is_retired(self, tmp_path, document):
        """A ``meta.json`` that parses to something other than an object
        is warned about and retired by every read path, like an
        unparsable one."""
        for reader in ("get_result", "iter_results", "verify", "get_trace"):
            store, key = self._stored_sim(tmp_path / reader)
            if reader == "get_trace":
                key = trace_spec("tp2d", "small").key()
                clear_trace_cache(store=store, memory_only=True)
            (store.entry_dir(key) / "meta.json").write_text(document, "utf-8")
            if reader == "verify":
                (problem,) = store.verify(remove=True)
                assert problem["key"] == key
                assert problem["problem"] == "unparsable meta.json"
            else:
                with pytest.warns(RuntimeWarning, match="unparsable"):
                    if reader == "get_result":
                        assert store.get_result(key) is None
                    elif reader == "get_trace":
                        assert store.get_trace(key) is None
                    else:
                        assert key not in dict(store.iter_results())
            assert not store.has(key), reader

    @pytest.mark.parametrize("document", ["empty", "foreign-key"])
    def test_meta_that_breaks_the_rule_is_retired(self, tmp_path, document):
        """One rule for a sound ``meta.json``: an object without ``key``
        or naming another entry is retired by every read path, and
        ``verify`` reports it with the warning's problem text."""
        for reader in ("get_result", "iter_results", "verify", "get_trace"):
            store, key = self._stored_sim(tmp_path / reader)
            other = trace_spec("tp2d", "small").key()
            if reader == "get_trace":
                key, other = other, key
            clear_trace_cache(store=store, memory_only=True)
            meta = store.entry_dir(key) / "meta.json"
            if document == "empty":
                doc, problem = {}, "meta.json key mismatch (None)"
            else:
                doc = {**json.loads(meta.read_text("utf-8")), "key": other}
                problem = f"meta.json key mismatch ({other[:12]})"
            meta.write_text(json.dumps(doc), "utf-8")
            if reader == "verify":
                (found,) = store.verify(remove=True)
                assert (found["key"], found["problem"]) == (key, problem)
            else:
                with pytest.warns(RuntimeWarning) as caught:
                    if reader == "get_result":
                        assert store.get_result(key) is None
                    elif reader == "get_trace":
                        assert store.get_trace(key) is None
                    else:
                        assert key not in dict(store.iter_results())
                (warning,) = caught
                assert f"({problem})" in str(warning.message)
            assert not store.has(key), reader

    def test_trace_read_of_a_sim_is_a_plain_miss(self, tmp_path):
        """A sim entry holds no trace: ``get_trace`` of its key misses
        without a warning and retires nothing."""
        store, key = self._stored_sim(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get_trace(key) is None
        assert store.get_result(key) is not None
        assert store.verify() == []

    def test_malformed_entry_name_is_reported_as_such(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        entry = store.root / "objects" / "zz" / "zzz"
        entry.mkdir(parents=True)
        (entry / "meta.json").write_text("{}")
        with pytest.warns(RuntimeWarning, match="malformed store entry name"):
            assert list(store.iter_results()) == []
        (found,) = store.verify()
        assert (found["key"], found["problem"]) == ("zzz", "malformed store key")

    @pytest.mark.parametrize(
        "reader", ["get_result", "get_trace", "iter_results"]
    )
    def test_corrupt_entry_warning_points_at_the_caller(
        self, tmp_path, reader
    ):
        store, key = self._stored_sim(tmp_path)
        if reader == "get_trace":
            key = trace_spec("tp2d", "small").key()
        (store.entry_dir(key) / "meta.json").write_text("{}")
        clear_trace_cache(store=store, memory_only=True)
        with pytest.warns(RuntimeWarning, match="corrupt") as caught:
            if reader == "iter_results":
                list(store.iter_results())
            else:
                getattr(store, reader)(key)
        assert [w.filename for w in caught
                if issubclass(w.category, RuntimeWarning)] == [__file__]

    @pytest.mark.parametrize("damage", ["truncated", "undecodable"])
    @pytest.mark.parametrize("name", ["series.npz", "trace.json.gz"])
    def test_verify_and_the_reader_report_one_problem(
        self, tmp_path, name, damage
    ):
        """One decoder per artifact: ``verify`` reports a damaged artifact
        with the problem text the read path's warning carries."""
        store, key = self._stored_sim(tmp_path)
        if name == "trace.json.gz":
            key = trace_spec("tp2d", "small").key()
        path = store.entry_dir(key) / name
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:64])
        elif name == "trace.json.gz":
            with gzip.open(path, "wb") as fh:  # sound gzip, no JSON inside
                fh.write(b"not json")
        else:
            with zipfile.ZipFile(path, "w") as zf:  # sound zip, no array
                zf.writestr("time.npy", b"not an array")
        clear_trace_cache(store=store, memory_only=True)
        (found,) = store.verify()
        assert found["key"] == key
        assert found["problem"].startswith(f"{name} unreadable: ")
        with pytest.warns(RuntimeWarning) as caught:
            if name == "trace.json.gz":
                assert store.get_trace(key) is None
            else:
                assert store.get_result(key) is None
        (warning,) = caught
        assert f"({found['problem']})" in str(warning.message)
        assert not store.has(key)

    def test_sweep_repairs_unparsable_meta(self, tmp_path):
        store, key = self._stored_sim(tmp_path)
        before = _store_file_hashes(store)
        (store.entry_dir(key) / "meta.json").write_text("{nope", "utf-8")
        with pytest.warns(RuntimeWarning, match="unparsable meta.json"):
            [result] = run_specs(
                [sim_spec("tp2d", "small", nprocs=NPROCS)], store=store
            )
        assert result.key == key
        assert _store_file_hashes(store) == before


    @pytest.mark.parametrize("cut", list(_CUTS))
    @pytest.mark.parametrize(
        "kind,name",
        [("sim", "meta.json"), ("sim", "series.npz"),
         ("trace", "meta.json"), ("trace", "trace.json.gz")],
    )
    def test_truncation_is_a_miss_then_republished(
        self, tmp_path, kind, name, cut
    ):
        store, key = self._stored_sim(tmp_path)
        spec = sim_spec("tp2d", "small", nprocs=NPROCS)
        if kind == "trace":
            key = trace_spec("tp2d", "small").key()
        before = _store_file_hashes(store)
        path = store.entry_dir(key) / name
        payload = path.read_bytes()
        path.write_bytes(payload[: _CUTS[cut](len(payload))])
        clear_trace_cache(store=store, memory_only=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if kind == "sim":
                assert store.get_result(key) is None
                run_spec(spec, store=store)
            else:
                assert store.get_trace(key) is None
                paper_trace("tp2d", "small", store=store)
        assert _store_file_hashes(store) == before
        assert store.verify() == []

    @pytest.mark.parametrize("rival_retired", [False, True])
    def test_publish_that_loses_a_race_leaves_one_sound_entry(
        self, tmp_path, monkeypatch, rival_retired
    ):
        """Our rename loses to a rival's publish; an overwriter may then
        retire the rival's entry before we look.  Either way the publish
        ends with one sound entry instead of raising."""
        reference, key = self._stored_sim(tmp_path)
        store = ResultStore(tmp_path / "racer")
        final = store.entry_dir(key)
        rival = tmp_path / "rival-stage"
        shutil.copytree(reference.entry_dir(key), rival)
        real_replace = os.replace
        raced = []

        def racing_replace(src, dst):
            if Path(dst) == final and not raced:
                raced.append(src)
                real_replace(rival, final)
                if rival_retired:
                    real_replace(final, tmp_path / "retired")
                raise OSError(errno.ENOTEMPTY, "Directory not empty", str(dst))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.engine.store.os.replace", racing_replace)
        store.put_result(reference.get_result(key), overwrite=True)
        monkeypatch.undo()
        assert raced
        assert [k for k, _ in store.iter_results()] == [key]
        expected = {
            entry: digest
            for entry, digest in _store_file_hashes(reference).items()
            if entry[0] == key
        }
        assert _store_file_hashes(store) == expected
        assert list((store.root / "tmp").iterdir()) == []
        assert store.verify() == []

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_concurrent_publishes_leave_one_sound_entry(
        self, tmp_path, overwrite
    ):
        reference, key = self._stored_sim(tmp_path)
        result = reference.get_result(key)
        store = ResultStore(tmp_path / "racers")
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(6)
        racers = [
            ctx.Process(target=_race_publish,
                        args=(str(store.root), result, overwrite, barrier))
            for _ in range(6)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=120)
        assert [racer.exitcode for racer in racers] == [0] * 6
        assert [k for k, _ in store.iter_results()] == [key]
        expected = {
            entry: digest
            for entry, digest in _store_file_hashes(reference).items()
            if entry[0] == key
        }
        assert _store_file_hashes(store) == expected
        assert list((store.root / "tmp").iterdir()) == []
        assert store.verify() == []


class TestBackendCLI:
    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_141_quietly(self, buffered):
        # Buffered, the short output first meets the closed pipe when
        # stdout is flushed; unbuffered, on the first print.
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "describe"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120, env=env,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141, done.stderr
        assert "Traceback" not in done.stderr

    def test_cache_verify_cli(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        spec = sim_spec("tp2d", "small", nprocs=NPROCS)
        run_spec(spec, store=store)
        assert cli.main(["cache", "verify", "--cache-dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "sound" in out
        (store.entry_dir(spec.key()) / "series.npz").write_bytes(b"junk")
        assert cli.main(["cache", "verify", "--cache-dir", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "series.npz" in out
        assert "--remove" in out
        assert cli.main([
            "cache", "verify", "--remove", "--cache-dir", str(store_dir)
        ]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert cli.main(["cache", "verify", "--cache-dir", str(store_dir)]) == 0
