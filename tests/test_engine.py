"""Tests for the experiment engine: specs, store, executor, CLI.

Covers the engine contract end to end: content-hash stability (within
and across processes), store round trips, parallel results bit-identical
to serial, resume-after-partial-sweep hitting the store instead of
recomputing, the disk-backed trace cache, and ``python -m repro`` smoke
tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import (
    ResultStore,
    RunResult,
    RunSpec,
    build_plan,
    clear_read_cache,
    default_store,
    penalties_spec,
    run_spec,
    run_specs,
    shard_specs,
    sim_spec,
    trace_spec,
)
from repro.engine import executor as executor_module
from repro.experiments import clear_trace_cache, paper_trace

NPROCS = 4


def _cli_env(tmp_path: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cli-store")
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _cli(args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=_cli_env(tmp_path),
    )


#: Column dtypes the store's series files must round-trip bit for bit.
_SERIES_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint16, np.bool_]
)


def _seed_runs(store: ResultStore) -> list[RunResult]:
    """A bl2d sim run and its penalties run, sharing one trace."""
    return [
        run_spec(sim_spec("bl2d", "small", nprocs=NPROCS), store=store),
        run_spec(penalties_spec("bl2d", "small", nprocs=NPROCS), store=store),
    ]


class TestSpecHash:
    def test_key_is_hex_sha256(self):
        key = sim_spec("bl2d", "small").key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_key_ignores_param_order(self):
        a = sim_spec("bl2d", "small", partitioner="patch-lpt",
                     params={"strategy": "lpt", "split_oversized": True})
        b = sim_spec("bl2d", "small", partitioner="patch-lpt",
                     params={"split_oversized": True, "strategy": "lpt"})
        assert a.key() == b.key()

    def test_key_distinguishes_jobs(self):
        base = sim_spec("bl2d", "small", nprocs=4)
        assert base.key() != sim_spec("tp2d", "small", nprocs=4).key()
        assert base.key() != sim_spec("bl2d", "paper", nprocs=4).key()
        assert base.key() != sim_spec("bl2d", "small", nprocs=8).key()
        assert base.key() != sim_spec(
            "bl2d", "small", nprocs=4, partitioner="patch-lpt"
        ).key()
        assert base.key() != penalties_spec("bl2d", "small", nprocs=4).key()
        assert base.key() != trace_spec("bl2d", "small").key()

    def test_named_machine_hashes_like_explicit_params(self):
        from dataclasses import asdict

        from repro.engine import resolve_machine

        named = sim_spec("bl2d", "small", machine="net-starved")
        explicit = sim_spec(
            "bl2d", "small", machine=asdict(resolve_machine("net-starved"))
        )
        assert named.key() == explicit.key()

    def test_key_stable_across_processes(self):
        spec = sim_spec("bl2d", "small", nprocs=4, machine="net-starved")
        code = (
            "from repro.engine import sim_spec;"
            "print(sim_spec('bl2d','small',nprocs=4,machine='net-starved')"
            ".key())"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # must not leak into content hashes
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == spec.key()

    def test_json_round_trip(self):
        spec = sim_spec(
            "tp3d", "small", nprocs=8, partitioner="domain-sfc-morton",
            params={"unit_size": 4}, machine="fast-network", seed=7,
        )
        again = RunSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
        assert again.key() == spec.key()

    def test_validation(self):
        with pytest.raises(ValueError):
            sim_spec("nope2d", "small")
        with pytest.raises(ValueError):
            sim_spec("bl2d", "huge")
        with pytest.raises(ValueError):
            sim_spec("bl2d", "small", partitioner="magic")
        with pytest.raises(ValueError):
            sim_spec("bl2d", "small", nprocs=0)
        with pytest.raises(ValueError):
            penalties_spec("bl2d", "small", migration_denominator="median")
        with pytest.raises(ValueError, match="schedule"):
            sim_spec("bl2d", "small", partitioner="meta-partitioner",
                     params={"bogus": 1})

    def test_ndim_filled_from_registry(self):
        assert sim_spec("bl2d", "small").ndim == 2
        assert sim_spec("bl3d", "small").ndim == 3

    def test_seed_rejected_for_seedless_kernel(self):
        # sc2d's constructor takes no seed; fail at spec time, not in a
        # worker's TypeError.
        with pytest.raises(ValueError, match="seed"):
            sim_spec("sc2d", "small", seed=7)
        with pytest.raises(ValueError, match="seed"):
            paper_trace("sc2d", "small", seed=7)


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = sim_spec("bl2d", "small", nprocs=NPROCS)
        assert store.get_result(spec) is None
        result = run_spec(spec, store=store)
        assert store.has(result.key)
        again = store.get_result(spec)
        assert again.meta == result.meta
        assert set(again.arrays) == set(result.arrays)
        for name in result.arrays:
            assert np.array_equal(again.arrays[name], result.arrays[name])
            assert again.arrays[name].dtype == result.arrays[name].dtype

    @given(data=st.data(), n=st.integers(0, 6), ncols=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_series_roundtrip_bitwise(self, data, n, ncols):
        # Unbounded float columns draw NaN, infinities and -0.0 as well.
        arrays = {
            f"m{i}": data.draw(hnp.arrays(data.draw(_SERIES_DTYPES), n))
            for i in range(ncols)
        }
        spec = sim_spec("bl2d", "small", nprocs=NPROCS, seed=7)
        meta = {"trace": "synthetic", "summary": {"mean_x": 0.5}}
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(Path(tmp) / "store")
            store.put_result(RunResult(
                spec=spec, key=spec.key(), meta=meta, arrays=arrays
            ))
            clear_read_cache()  # read the entry back from disk
            back = ResultStore(store.root).get_result(spec.key())
        assert back.meta == meta
        assert sorted(back.arrays) == sorted(arrays)
        for name, arr in arrays.items():
            assert back.arrays[name].dtype == arr.dtype
            assert back.arrays[name].shape == arr.shape
            assert back.arrays[name].tobytes() == arr.tobytes()

    def test_nan_inf_and_signed_zero_survive(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = sim_spec("bl2d", "small", nprocs=NPROCS, seed=11)
        arrays = {
            "weird": np.array([np.nan, np.inf, -np.inf, -0.0]),
            "ints": np.array([1, 2, 3, 4], dtype=np.int32),
        }
        store.put_result(RunResult(
            spec=spec, key=spec.key(), meta={"trace": "t"}, arrays=arrays
        ))
        clear_read_cache()
        back = store.get_result(spec.key()).arrays
        assert back["weird"].tobytes() == arrays["weird"].tobytes()
        assert back["ints"].dtype == np.int32
        assert back["ints"].tolist() == [1, 2, 3, 4]

    def test_real_runs_reread_from_disk_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        results = _seed_runs(store)
        clear_read_cache()
        fresh = ResultStore(store.root)
        for result in results:
            back = fresh.get_result(result.key)
            assert back.spec.key() == result.key
            assert back.meta == result.meta
            assert sorted(back.arrays) == sorted(result.arrays)
            for name, arr in result.arrays.items():
                assert back.arrays[name].dtype == arr.dtype
                assert back.arrays[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("kind", ["sim", "penalties", "trace", "other"])
    def test_iter_results_kind_filter(self, kind, tmp_path):
        store = ResultStore(tmp_path / "store")
        _seed_runs(store)
        every = dict(store.iter_results())
        listed = dict(store.iter_results(kind=kind))
        assert set(listed) == {
            key for key, doc in every.items() if doc["kind"] == kind
        }
        # One entry of each seeded kind; a kind nobody stored lists empty.
        assert len(listed) == (kind != "other")
        for key, doc in listed.items():
            assert doc == every[key]

    def test_iter_results_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_spec(sim_spec("bl2d", "small", nprocs=NPROCS), store=store)
        run_spec(penalties_spec("bl2d", "small", nprocs=NPROCS), store=store)

        def kinds():
            return sorted(doc["kind"] for _, doc in store.iter_results())

        # The sim and penalties entries plus the shared trace artifact.
        assert kinds() == ["penalties", "sim", "trace"]
        assert store.clear(kind="sim") == 1
        assert kinds() == ["penalties", "trace"]
        assert store.clear() == 2
        assert kinds() == []

    def test_iter_results_streams_meta_with_bookkeeping(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        results = _seed_runs(store)
        listed = dict(store.iter_results())
        # The two runs plus their shared trace, one per object directory.
        assert set(listed) == {r.key for r in results} | {
            results[0].spec.inputs()[0].key()
        }
        assert set(listed) == {
            path.name for path in (store.root / "objects").glob("*/*")
        }
        for key, doc in listed.items():
            assert doc["nbytes"] > 0
            assert doc["mtime"] > 0
            assert doc["key"] == key
        sims = dict(store.iter_results(kind="sim"))
        assert {doc["kind"] for doc in sims.values()} == {"sim"}
        assert len(sims) == 1

    def test_iter_results_corrupt_entry_warn_skipped_and_retired(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        results = _seed_runs(store)
        victim = results[0].key
        (store.entry_dir(victim) / "meta.json").write_text("not json{")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            listed = dict(store.iter_results())
        assert victim not in listed
        assert len(listed) == 2  # trace + the surviving run
        assert not store.has(victim)  # retired, next publish repairs

    def test_iter_results_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert list(store.iter_results()) == []

    def test_default_store_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_store().root == tmp_path / "custom"

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.has("../escape")


class TestExecutor:
    def _sweep(self):
        return [
            sim_spec(app, "small", nprocs=NPROCS, partitioner=part)
            for app in ("bl2d", "tp2d")
            for part in ("nature+fable", "domain-sfc-hilbert")
        ]

    def test_parallel_bit_identical_to_serial(self, tmp_path):
        specs = self._sweep()
        serial = run_specs(specs, n_jobs=1, store=ResultStore(tmp_path / "a"))
        parallel = run_specs(specs, n_jobs=2, store=ResultStore(tmp_path / "b"))
        assert len(serial) == len(parallel) == len(specs)
        for ser, par in zip(serial, parallel):
            assert ser.key == par.key
            assert ser.meta == par.meta
            assert set(ser.arrays) == set(par.arrays)
            for name in ser.arrays:
                assert np.array_equal(ser.arrays[name], par.arrays[name])
                assert ser.arrays[name].dtype == par.arrays[name].dtype

    def test_results_in_submission_order_with_duplicates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self._sweep()
        submitted = [specs[2], specs[0], specs[2]]
        results = run_specs(submitted, store=store)
        assert [r.key for r in results] == [s.key() for s in submitted]
        assert results[0] is results[2]  # duplicates share one result

    def test_resume_hits_store_instead_of_recomputing(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        specs = self._sweep()
        run_specs(specs[:2], n_jobs=1, store=store)  # partial sweep, then "killed"
        computed: list[str] = []
        real_compute = executor_module._compute

        def counting_compute(spec, store):
            computed.append(spec.label())
            return real_compute(spec, store)

        monkeypatch.setattr(executor_module, "_compute", counting_compute)
        results = run_specs(specs, n_jobs=1, store=store)  # resumed sweep
        assert len(results) == len(specs)
        # The DAG schedules the missing tp2d trace first (its own layer),
        # then the two missing sims; the bl2d half resolves in the store.
        assert computed == ["trace:tp2d:small"] + [
            s.label() for s in specs[2:]
        ]

    def test_plan_specs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self._sweep()
        run_spec(specs[0], store=store)
        plan = build_plan(specs + specs[:1], store)
        assert [node.spec for node in plan.submitted()] == specs
        unstored = [node for node in plan.nodes.values() if not node.stored]
        assert {node.key for node in plan.pending()} == {
            node.key for node in unstored
        }
        assert [node.spec for node in unstored if node.submitted] == specs[1:]
        assert [node.spec for node in unstored if not node.submitted] == [
            trace_spec("tp2d", "small")
        ]

    def test_shard_specs_keeps_workloads_together(self):
        specs = self._sweep()
        shards = shard_specs(specs, 2)
        assert sorted(s.key() for shard in shards for s in shard) == sorted(
            s.key() for s in specs
        )
        for shard in shards:
            assert len({(s.app, s.scale) for s in shard}) == 1

    def test_shard_specs_splits_single_workload_sweeps(self):
        # One app, many partitioners: n_jobs must still parallelize.
        specs = [
            sim_spec("bl2d", "small", nprocs=NPROCS, partitioner=p)
            for p in ("nature+fable", "patch-lpt", "domain-sfc-hilbert",
                      "domain-sfc-morton", "sticky-sfc", "armada-octant")
        ]
        shards = shard_specs(specs, 2)
        assert len(shards) == 2
        assert sorted(len(s) for s in shards) == [3, 3]

    def test_force_recomputes(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        spec = self._sweep()[0]
        run_spec(spec, store=store)
        computed = []
        real_compute = executor_module._compute
        monkeypatch.setattr(
            executor_module,
            "_compute",
            lambda s, st: (computed.append(s.label()), real_compute(s, st))[1],
        )
        run_specs([spec], store=store, force=True)
        assert computed == [spec.label()]

    def test_force_replaces_stale_store_entry(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = self._sweep()[0]
        good = run_spec(spec, store=store)
        # Corrupt the stored summary, then force: the fresh result must
        # replace the stale entry on disk and be what the caller gets.
        meta_path = store.entry_dir(good.key) / "meta.json"
        doc = json.loads(meta_path.read_text())
        doc["meta"]["total_execution_seconds"] = -999.0
        meta_path.write_text(json.dumps(doc))
        fresh = run_spec(spec, store=store, force=True)
        assert fresh.meta["total_execution_seconds"] == pytest.approx(
            good.meta["total_execution_seconds"]
        )
        assert store.get_result(spec).meta == fresh.meta

    def test_force_trace_regenerates_artifact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = trace_spec("bl2d", "small")
        run_spec(spec, store=store)
        run_spec(spec, store=store, force=True)
        # The trace artifact must survive a forced re-run.
        assert store.get_trace(spec) is not None

    def test_schedule_spec_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = run_spec(
            sim_spec(
                "bl2d", "small", nprocs=NPROCS, partitioner="meta-partitioner"
            ),
            store=store,
        )
        assert result.meta["partitioner"]["name"] == "scheduled"
        assert result.meta["total_execution_seconds"] > 0


class TestTraceCache:
    def test_disk_cache_survives_memory_clear(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "traces")
        trace = paper_trace("bl2d", "small", store=store)
        clear_trace_cache(store=store, memory_only=True)
        # Break generation: a reload must come from the disk artifact.
        monkeypatch.setattr(
            "repro.engine.executor._generate",
            lambda *a: pytest.fail("trace regenerated despite disk cache"),
        )
        reloaded = paper_trace("bl2d", "small", store=store)
        assert reloaded.name == trace.name
        assert reloaded.hierarchies() == trace.hierarchies()
        assert [s.time for s in reloaded] == [s.time for s in trace]

    def test_clear_trace_cache_removes_disk_entries(self, tmp_path):
        store = ResultStore(tmp_path / "traces")
        paper_trace("bl2d", "small", store=store)
        paper_trace("tp2d", "small", store=store)
        assert clear_trace_cache(store=store) == 2
        assert list(store.iter_results()) == []

    def test_memo_returns_same_object(self, tmp_path):
        store = ResultStore(tmp_path / "traces")
        assert paper_trace("bl2d", "small", store=store) is paper_trace(
            "bl2d", "small", store=store
        )

    def test_seed_override_changes_trace_key(self):
        assert (
            trace_spec("bl2d", "small").key()
            != trace_spec("bl2d", "small", seed=7).key()
        )


class TestLayering:
    def test_specs_plan_and_run_without_the_experiment_layer(self, tmp_path):
        """The engine owns the trace job: building, hashing and running
        specs, their trace input included, imports no experiment module."""
        script = (
            "import sys\n"
            "from repro.engine import (\n"
            "    ResultStore, penalties_spec, run_specs, sim_spec)\n"
            "specs = [sim_spec('tp2d', 'small', nprocs=4),\n"
            "         penalties_spec('tp2d', 'small', nprocs=4)]\n"
            "keys = [spec.key() for spec in specs]\n"
            "store = ResultStore(sys.argv[1])\n"
            "assert [r.key for r in run_specs(specs, store=store)] == keys\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.experiments')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True, text=True, env=_cli_env(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert len(list(ResultStore(tmp_path / "store").iter_results())) == 3


@pytest.fixture(autouse=True)
def _fresh_trace_memo():
    """Each test sees a cold in-process memo (stores are per-test tmp dirs)."""
    clear_trace_cache(memory_only=True)
    yield


class TestCli:
    def test_sweep_serial_then_parallel_resume(self, tmp_path):
        args = [
            "sweep", "--scale", "small", "--apps", "bl2d",
            "--partitioners", "nature+fable,patch-lpt",
            "--nprocs", str(NPROCS),
        ]
        cold = _cli(args + ["--n-jobs", "2"], tmp_path)
        assert cold.returncode == 0, cold.stderr
        assert "2 to compute" in cold.stdout
        assert "bl2d" in cold.stdout and "patch-lpt" in cold.stdout
        warm = _cli(args + ["--n-jobs", "1"], tmp_path)
        assert warm.returncode == 0, warm.stderr
        assert "0 to compute" in warm.stdout
        # The rendered result tables must match exactly, cold or warm.
        table = lambda out: [  # noqa: E731
            line for line in out.splitlines() if line.startswith("bl2d")
        ]
        assert table(cold.stdout) == table(warm.stdout)
        assert len(table(cold.stdout)) == 2

    def test_commands_run_without_scipy(self, tmp_path):
        """scipy is a test-only dependency: with it unimportable, trace
        generation, a Nature+Fable sim and a figure still exit 0."""
        blocked = (
            "import sys; sys.modules['scipy'] = None; "
            "from repro.engine.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        for args in (
            ["run", "--scale", "small", "--app", "tp2d", "--kind", "trace"],
            ["run", "--scale", "small", "--app", "tp3d", "--kind", "trace"],
            ["run", "--scale", "small", "--app", "tp2d",
             "--partitioner", "nature+fable", "--nprocs", str(NPROCS)],
            ["report", "--figures", "1", "--scale", "small", "--quiet"],
        ):
            done = subprocess.run(
                [sys.executable, "-c", blocked, *args],
                capture_output=True, text=True, env=_cli_env(tmp_path),
            )
            assert done.returncode == 0, (args, done.stderr)

    def test_run_and_cache_roundtrip(self, tmp_path):
        run = _cli(
            ["run", "--app", "bl2d", "--scale", "small", "--nprocs",
             str(NPROCS), "--json"],
            tmp_path,
        )
        assert run.returncode == 0, run.stderr
        doc = json.loads(run.stdout)
        assert doc["meta"]["trace"] == "bl2d"
        ls = _cli(["cache", "ls"], tmp_path)
        assert ls.returncode == 0, ls.stderr
        assert "2 entries" in ls.stdout  # the sim result + its trace
        clear = _cli(["cache", "clear"], tmp_path)
        assert clear.returncode == 0
        assert "removed 2 entries" in clear.stdout

    def test_cache_ls_skips_corrupt_entry(self, tmp_path, monkeypatch, capsys):
        from repro.engine.cli import main

        store = ResultStore(tmp_path / "store")
        keys = []
        for nprocs in (2, 4):
            spec = sim_spec("bl2d", "small", nprocs=nprocs)
            store.put_result(RunResult(
                spec=spec, key=spec.key(), meta={},
                arrays={"step": np.arange(3)},
            ))
            keys.append(spec.key())
        sound, corrupt = keys
        meta = store.entry_dir(corrupt) / "meta.json"
        doc = json.loads(meta.read_text())
        del doc["spec"]
        meta.write_text(json.dumps(doc))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store.root))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "(1 entries" in out
        assert sound[:12] in out and corrupt[:12] not in out
        assert not store.has(corrupt)  # retired, like every other read

    def test_cache_ls_json(self, tmp_path):
        run = _cli(
            ["run", "--app", "bl2d", "--scale", "small",
             "--nprocs", str(NPROCS)],
            tmp_path,
        )
        assert run.returncode == 0, run.stderr
        ls = _cli(["cache", "ls", "--json"], tmp_path)
        assert ls.returncode == 0, ls.stderr
        docs = json.loads(ls.stdout)
        assert len(docs) == 2  # trace + sim
        for doc in docs:
            assert set(doc) >= {
                "key", "kind", "app", "scale", "bytes", "age_seconds"
            }
            assert doc["bytes"] > 0 and doc["age_seconds"] >= 0
        only_sim = _cli(["cache", "ls", "--json", "--kind", "sim"], tmp_path)
        assert [d["kind"] for d in json.loads(only_sim.stdout)] == ["sim"]

    def test_report_smoke(self, tmp_path):
        out = _cli(
            ["report", "--figures", "1,5", "--scale", "small",
             "--nprocs", str(NPROCS), "--quiet"],
            tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "Figure 1" in out.stdout
        assert "Figure 5" in out.stdout
        assert "beta_C" in out.stdout

    def test_report_renders_each_figure_once_in_order(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.engine.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert main(["report", "--figures", "5,1,5", "--scale", "small",
                     "--nprocs", str(NPROCS), "--quiet"]) == 0
        titles = [
            line.split(" — ")[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("Figure ")
        ]
        assert titles == ["Figure 1", "Figure 5"]

    @pytest.mark.parametrize(
        "figures, expected",
        [
            ("1,4,5,6,7", [1, 4, 5, 6, 7]),
            ("7,4", [4, 7]),
            ("5,1,5", [1, 5]),
            (" 6 , 1 ,", [1, 6]),
        ],
    )
    def test_report_figure_list_parses_sorted_and_unique(
        self, figures, expected
    ):
        from repro.engine.cli import build_parser

        args = build_parser().parse_args(["report", "--figures", figures])
        assert args.figures == expected

    def test_report_default_figures_are_all_five(self):
        from repro.engine.cli import build_parser

        assert build_parser().parse_args(["report"]).figures == [1, 4, 5, 6, 7]

    def test_report_warm_store_is_byte_identical_and_never_computes(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.engine.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        argv = ["report", "--figures", "1,5", "--scale", "small",
                "--nprocs", str(NPROCS), "--quiet"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        clear_read_cache()

        def no_compute(spec, store=None):
            raise AssertionError(f"warm report computed {spec.label()}")

        monkeypatch.setattr(executor_module, "_compute", no_compute)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    @pytest.mark.parametrize("figures", [",", "", "x", "1,x", "2", "1,8"])
    def test_report_bad_figure_list_is_a_usage_error(
        self, figures, tmp_path, monkeypatch, capsys
    ):
        from repro.engine.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        with pytest.raises(SystemExit) as exc:
            main(["report", "--figures", figures, "--scale", "small",
                  "--quiet"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --figures" in captured.err
        assert "1,4,5,6,7" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "store").exists()  # nothing was computed

    def test_unknown_app_fails_cleanly(self, tmp_path):
        out = _cli(["sweep", "--apps", "warp9", "--scale", "small"], tmp_path)
        assert out.returncode == 2
        [line] = out.stderr.splitlines()
        assert line.startswith("error: unknown app 'warp9'")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--scale", "small", "--apps", "warp9"],
             "unknown app 'warp9'"),
            (["graph", "--scale", "small", "--partitioners", "bogus"],
             "unknown partitioner 'bogus'"),
            (["plan", "--scale", "small", "--machines", "bogus"],
             "unknown machine 'bogus'"),
            (["describe", "--kind", "bogus"],
             "unknown component kind 'bogus'"),
            (["run", "--app", "tp2d", "--scale", "small", "--param",
              "unit_size"], "--param expects name=value"),
            (["cache", "gc"], "cache gc needs --max-bytes"),
        ],
        ids=["app", "partitioner", "machine", "kind", "param", "gc"],
    )
    def test_usage_error_exits_2_with_one_error_line(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        from repro.engine.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "partitioner, name, raw, value",
        [
            ("domain-sfc-hilbert", "unit_size", "abc", "abc"),
            ("domain-sfc-hilbert", "unit_size", "null", None),
            ("domain-sfc-hilbert", "exact", "maybe", "maybe"),
            ("nature+fable", "q", "abc", "abc"),
        ],
    )
    def test_mistyped_param_exits_2_and_leaves_a_failure_record(
        self, partitioner, name, raw, value, tmp_path, capsys
    ):
        from repro.engine.cli import main
        from repro.telemetry import load_run_profile

        store_dir = str(tmp_path / "store")
        assert main(["run", "--app", "tp2d", "--scale", "small", "--nprocs",
                     str(NPROCS), "--partitioner", partitioner,
                     "--param", f"{name}={raw}",
                     "--cache-dir", store_dir]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: parameter {name!r} of partitioner")
        spec = sim_spec("tp2d", "small", nprocs=NPROCS,
                        partitioner=partitioner, params={name: value})
        doc = load_run_profile(store_dir, spec.key())
        assert doc["outcome"] == "failed"
        assert doc["error"] == f"ValueError: {line.removeprefix('error: ')}"

    def test_well_typed_param_runs(self, tmp_path):
        from repro.engine.cli import main

        store = ResultStore(tmp_path / "store")
        assert main(["run", "--app", "tp2d", "--scale", "small", "--nprocs",
                     str(NPROCS), "--partitioner", "domain-sfc-hilbert",
                     "--param", "unit_size=4",
                     "--cache-dir", str(store.root)]) == 0
        spec = sim_spec("tp2d", "small", nprocs=NPROCS,
                        partitioner="domain-sfc-hilbert",
                        params={"unit_size": 4})
        assert store.has(spec.key())

    def test_spec_validation_error_is_not_a_traceback(self, tmp_path):
        out = _cli(
            ["run", "--app", "sc2d", "--scale", "small", "--seed", "5"],
            tmp_path,
        )
        assert out.returncode == 2
        assert "error:" in out.stderr
        assert "Traceback" not in out.stderr
