"""Tests for the execution-backend subsystem and store hardening.

Covers the backend registry/resolution contract, serial/process result
parity (bit-identical stores), the placement reports, and the store's
failure paths: corrupt or truncated entries degrade to cache misses
and self-repair instead of crashing, and concurrent publishes of one
key leave one sound entry.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import warnings

import numpy as np
import pytest

from repro.engine import (
    ProcessBackend,
    ResultStore,
    SerialBackend,
    resolve_backend,
    run_spec,
    run_specs,
    sim_spec,
    trace_spec,
)
from repro.engine import cli
from repro.engine.backends import backend_names
from repro.experiments import clear_trace_cache, paper_trace
from repro.registry import create, registry

NPROCS = 4


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


class TestBackendRegistry:
    def test_builtins_registered(self):
        names = tuple(registry("backend"))
        assert names == ("serial", "process")
        assert backend_names() == names

    def test_default_resolution_tracks_n_jobs(self):
        assert isinstance(resolve_backend(None, n_jobs=1), SerialBackend)
        backend = resolve_backend(None, n_jobs=3)
        assert isinstance(backend, ProcessBackend)
        assert backend.n_jobs == 3

    def test_names_and_instances_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        process = resolve_backend("process", n_jobs=2)
        assert isinstance(process, ProcessBackend)
        assert process.n_jobs == 2
        instance = ProcessBackend(n_jobs=5)
        assert resolve_backend(instance) is instance

    def test_unknown_backend_and_bad_type(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("slurm-maybe-later")
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_registry_create_validates_params(self):
        backend = create("backend", "process", n_jobs=3)
        assert backend.n_jobs == 3
        with pytest.raises(ValueError, match="unknown parameter"):
            create("backend", "process", warp_factor=9)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(n_jobs=0)


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
        run_specs(specs, store=ResultStore(tmp_path / "ser"),
                  backend="serial")
        run_specs(specs, store=ResultStore(tmp_path / "proc"),
                  backend="process", n_jobs=2)
        ser = _store_file_hashes(ResultStore(tmp_path / "ser"))
        proc = _store_file_hashes(ResultStore(tmp_path / "proc"))
        assert ser == proc

    def test_verbose_progress_lines(self, tmp_path):
        lines: list[str] = []
        run_specs(_sweep(), store=ResultStore(tmp_path / "v"),
                  verbose=True, progress=lines.append)
        assert any(line.startswith("backend: serial") for line in lines)
        status = [line for line in lines if "queued" in line]
        assert status  # per-layer queued/leased/done lines
        assert any("done" in line for line in status)

    def test_process_verbose_progress_lines(self, tmp_path):
        lines: list[str] = []
        run_specs(_sweep(apps=("tp2d", "bl2d")),
                  store=ResultStore(tmp_path / "pv"), backend="process",
                  n_jobs=2, verbose=True, progress=lines.append)
        assert any("leased" in line and "done" in line for line in lines)


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
    def test_sweep_backend_serial_verbose(self, tmp_path, capsys):
        code = cli.main([
            "sweep", "--scale", "small", "--apps", "tp2d",
            "--partitioners", "nature+fable", "--nprocs", str(NPROCS),
            "--backend", "serial", "--verbose",
            "--cache-dir", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: serial" in out
        assert "done" in out

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown backend"):
            cli.main([
                "sweep", "--scale", "small", "--apps", "tp2d",
                "--backend", "quantum",
                "--cache-dir", str(tmp_path / "store"),
            ])

    def test_plan_placement_report(self, tmp_path, capsys):
        code = cli.main([
            "plan", "--scale", "small", "--apps", "tp2d",
            "--partitioners", "suite", "--backend", "serial",
            "--cache-dir", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "placement:" in out
        assert "run in this process" in out

    def test_plan_placement_process_shards(self, tmp_path, capsys):
        code = cli.main([
            "plan", "--scale", "small", "--apps", "tp2d,bl2d",
            "--partitioners", "suite", "--backend", "process",
            "--n-jobs", "3",
            "--cache-dir", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pool of 3 local worker processes" in out
        assert "shards" in out

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
