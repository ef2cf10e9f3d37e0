"""The sweep warehouse: flatten, ingest, repair, query, CLI surfaces."""

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
    penalties_spec,
    run_spec,
    sim_spec,
    trace_spec,
)
from repro.warehouse import (
    PARTITION_COLUMNS,
    WAREHOUSE_SCHEMA_VERSION,
    NpzColumnFormat,
    Warehouse,
    flatten_run,
    group_stats,
    parquet_available,
    partition_path,
    partition_values,
    render_build_plan,
    resolve_format,
    scan,
    scan_table,
)

NPROCS = 4


def _store(root: Path) -> ResultStore:
    return ResultStore(root / "store")


def _seed_runs(store, apps=("bl2d",), partitioners=("nature+fable",)):
    """Compute a small grid into ``store``; returns the RunResults."""
    results = []
    for app in apps:
        for part in partitioners:
            results.append(run_spec(
                sim_spec(app, "small", nprocs=NPROCS, partitioner=part),
                store=store,
            ))
        results.append(run_spec(
            penalties_spec(app, "small", nprocs=NPROCS), store=store
        ))
    return results


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A store with two apps x two partitioners, fully ingested."""
    tmp = tmp_path_factory.mktemp("warehouse-warm")
    store = _store(tmp)
    results = _seed_runs(
        store, apps=("bl2d", "sc2d"),
        partitioners=("nature+fable", "patch-lpt"),
    )
    wh = Warehouse(tmp / "wh")
    report = wh.build(store)
    return store, wh, results, report


class TestFlatten:
    def test_sim_runs_row_and_steps(self, warm):
        store, wh, results, _ = warm
        sim = next(r for r in results if r.spec.kind == "sim")
        flat = flatten_run(sim)
        row = flat.runs_row
        assert row["key"] == sim.key
        assert row["kind"] == "sim"
        assert row["app"] == sim.spec.app
        assert row["scale"] == "small"
        assert row["nprocs"] == NPROCS
        assert row["partitioner"] == sim.spec.partitioner
        assert row["n_steps"] == sim.arrays["step"].size
        assert row["trace"] == sim.meta["trace"]
        # Resolved machine parameters become machine_<field> columns.
        assert row["machine_bandwidth_bytes_per_s"] > 0
        # Scalar summaries flatten by underscore path.
        assert row["summary_mean_relative_comm"] == pytest.approx(
            sim.meta["summary"]["mean_relative_comm"]
        )
        assert flat.partition == partition_values(sim.spec)
        for name, arr in sim.arrays.items():
            assert flat.steps[name].dtype == arr.dtype
            assert np.array_equal(flat.steps[name], arr, equal_nan=True)
        assert np.array_equal(
            flat.steps["step_index"], np.arange(flat.n_steps)
        )

    def test_penalties_partition_uses_kind(self, warm):
        store, wh, results, _ = warm
        pen = next(r for r in results if r.spec.kind == "penalties")
        values = partition_values(pen.spec)
        assert values["partitioner"] == "penalties"
        assert partition_path(values).endswith("partitioner=penalties")

    def test_trace_kind_rejected(self, tmp_path):
        store = _store(tmp_path)
        spec = trace_spec("bl2d", "small")
        run_spec(spec, store=store)
        result = store.get_result(spec)
        with pytest.raises(ValueError, match="cannot flatten"):
            flatten_run(result)

    def test_partition_path_rejects_separator_values(self):
        with pytest.raises(ValueError, match="hive directory"):
            partition_path(
                {"app": "a/b", "scale": "small", "partitioner": "p"}
            )


_COLUMN_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint16, np.bool_]
)


def _column(data, dtype, n):
    if np.issubdtype(dtype, np.floating):
        width = 32 if dtype is np.float32 else 64
        elements = st.floats(
            allow_nan=True, allow_infinity=True, width=width
        )
        return data.draw(hnp.arrays(dtype, n, elements=elements))
    return data.draw(hnp.arrays(dtype, n))


class TestRoundTrip:
    """Bit-identity of flatten -> shard -> scan over dtypes and NaNs."""

    @given(data=st.data(), n=st.integers(1, 6), ncols=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_series_roundtrip_bitwise(self, data, n, ncols):
        arrays = {
            name: _column(data, data.draw(_COLUMN_DTYPES), n)
            for name in (f"m{i}" for i in range(ncols))
        }
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(Path(tmp) / "store")
            spec = sim_spec("bl2d", "small", nprocs=NPROCS, seed=7)
            result = RunResult(
                spec=spec, key=spec.key(),
                meta={"trace": "synthetic", "summary": {"mean_x": 0.5}},
                arrays=arrays,
            )
            store.put_result(result)
            wh = Warehouse(Path(tmp) / "wh")
            report = wh.build(store)
            assert report.runs == 1
            back = wh.run_series(result.key)
            assert sorted(back) == sorted(arrays)
            for name, arr in arrays.items():
                assert back[name].dtype == arr.dtype
                assert np.array_equal(back[name], arr, equal_nan=True)
            row = wh.run_row(result.key)
            assert row["summary_mean_x"] == 0.5
            assert row["trace"] == "synthetic"

    def test_nan_and_inf_survive(self, tmp_path):
        store = _store(tmp_path)
        spec = sim_spec("bl2d", "small", nprocs=NPROCS, seed=11)
        arrays = {
            "weird": np.array([np.nan, np.inf, -np.inf, -0.0]),
            "ints": np.array([1, 2, 3, 4], dtype=np.int32),
        }
        store.put_result(RunResult(
            spec=spec, key=spec.key(), meta={"trace": "t"}, arrays=arrays
        ))
        wh = Warehouse(tmp_path / "wh")
        wh.build(store)
        back = wh.run_series(spec.key())
        assert back["weird"].tobytes() == arrays["weird"].tobytes()
        assert back["ints"].dtype == np.int32

    def test_real_run_bit_identity(self, warm):
        store, wh, results, _ = warm
        for result in results:
            if result.spec.kind == "trace":
                continue
            back = wh.run_series(result.key)
            assert sorted(back) == sorted(result.arrays)
            for name, arr in result.arrays.items():
                assert back[name].dtype == arr.dtype
                assert np.array_equal(back[name], arr, equal_nan=True)


class TestIngest:
    def test_preview_writes_nothing(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        plan = wh.plan(store)
        assert len(plan.new_keys) == 2  # one sim + one penalties
        assert plan.total_rows > 0
        assert plan.skipped.get("trace") == 1
        assert not (tmp_path / "wh").exists()
        rendered = render_build_plan(plan, format_name="npz")
        assert "2 new runs" in rendered
        assert "partitioner=penalties" in rendered
        assert "1 trace skipped" in rendered

    def test_build_idempotent(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        first = wh.build(store)
        assert first.runs == 2
        again = wh.build(store)
        assert again.runs == 0 and again.rows == 0 and again.shards == 0
        # Re-opening from disk sees the same manifest.
        reopened = Warehouse(tmp_path / "wh")
        assert reopened.build(store).runs == 0
        assert sorted(reopened.ingested()) == sorted(wh.ingested())

    def test_publish_racing_build_lands_next_build(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        late = {}

        def racing_publish(line):
            # Fires during ingest, after the plan was taken: a worker
            # publishing mid-build.
            if not late:
                late["result"] = run_spec(
                    sim_spec("sc2d", "small", nprocs=NPROCS), store=store
                )

        report = wh.build(store, progress=racing_publish)
        assert report.runs == 2
        assert late and late["result"].key not in wh.ingested()
        catchup = wh.build(store)
        assert catchup.runs == 1
        back = wh.run_series(late["result"].key)
        for name, arr in late["result"].arrays.items():
            assert np.array_equal(back[name], arr, equal_nan=True)
        assert wh.build(store).runs == 0

    def test_chunk_rollover_by_row_budget(self, tmp_path):
        store = _store(tmp_path)
        results = _seed_runs(
            store, partitioners=("nature+fable", "patch-lpt")
        )
        wh = Warehouse(tmp_path / "wh")
        # Every run has > 1 steps rows, so a 1-row budget forces one
        # chunk per run while staying correct.
        report = wh.build(store, max_rows_per_shard=1)
        assert report.shards == report.runs == 3
        for result in results:
            if result.spec.kind == "trace":
                continue
            back = wh.run_series(result.key)
            for name, arr in result.arrays.items():
                assert np.array_equal(back[name], arr, equal_nan=True)

    def test_kinds_filter(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        report = wh.build(store, kinds=("sim",))
        assert report.runs == 1
        with pytest.raises(ValueError, match="cannot ingest kind"):
            wh.plan(store, kinds=("trace",))

    def test_schema_version_pinned(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        wh.build(store)
        manifest = json.loads(
            (tmp_path / "wh" / "manifest.json").read_text()
        )
        assert manifest["schema"] == WAREHOUSE_SCHEMA_VERSION
        manifest["schema"] = WAREHOUSE_SCHEMA_VERSION + 1
        (tmp_path / "wh" / "manifest.json").write_text(
            json.dumps(manifest)
        )
        with pytest.raises(ValueError, match="rebuild it from the store"):
            Warehouse(tmp_path / "wh")

    def test_format_pin_conflict(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        Warehouse(tmp_path / "wh", format="npz").build(store)
        with pytest.raises(ValueError, match="pinned"):
            Warehouse(tmp_path / "wh", format="parquet")


class TestRepair:
    def _crash_chunk(self, wh: Warehouse, root: Path) -> tuple[str, list]:
        """Simulate a crash mid-chunk: runs shard + manifest entry gone,
        steps shard dangling."""
        partition = wh.partitions("steps")[0]
        runs_shard = wh.shards("runs", partition)[0]
        keys = [
            str(k) for k in wh.format.read(runs_shard, columns=["key"])["key"]
        ]
        runs_shard.unlink()
        manifest = json.loads((root / "manifest.json").read_text())
        for key in keys:
            manifest["ingested"].pop(key)
        (root / "manifest.json").write_text(json.dumps(manifest))
        return partition, keys

    def test_dangling_half_deleted_and_reingested(self, tmp_path):
        store = _store(tmp_path)
        results = _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        wh.build(store)
        partition, keys = self._crash_chunk(wh, tmp_path / "wh")
        reopened = Warehouse(tmp_path / "wh")
        assert reopened.shards("steps", partition) == []  # pair incomplete
        report = reopened.build(store)
        assert report.runs == len(keys)
        # The dangling steps half was replaced, not duplicated: per-run
        # readback still matches the store bit-for-bit.
        for result in results:
            if result.key in keys:
                back = reopened.run_series(result.key)
                for name, arr in result.arrays.items():
                    assert np.array_equal(back[name], arr, equal_nan=True)
        assert reopened.build(store).runs == 0

    def test_complete_unmanifested_chunk_adopted(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        first = wh.build(store)
        # Crash after the shard renames, before the manifest write.
        manifest = json.loads((tmp_path / "wh" / "manifest.json").read_text())
        dropped = sorted(manifest["ingested"])
        manifest["ingested"] = {}
        (tmp_path / "wh" / "manifest.json").write_text(json.dumps(manifest))
        reopened = Warehouse(tmp_path / "wh")
        report = reopened.build(store)
        assert report.adopted == len(dropped)
        assert report.runs == 0 and report.shards == 0  # nothing rewritten
        assert sorted(reopened.ingested()) == dropped
        rows = {e["rows"] for e in reopened.ingested().values()}
        assert all(r > 0 for r in rows)  # row counts read back from shards
        assert first.rows == sum(
            e["rows"] for e in reopened.ingested().values()
        )


class TestQuery:
    def test_scan_projection_and_partition_synthesis(self, warm):
        store, wh, results, _ = warm
        table = scan_table(
            wh, "steps", columns=["app", "partitioner", "step", "time"],
            filters={"app": "bl2d", "partitioner": "nature+fable"},
        )
        assert set(table) == {"app", "partitioner", "step", "time"}
        assert set(table["app"]) == {"bl2d"}
        assert set(table["partitioner"]) == {"nature+fable"}
        sim = next(
            r for r in results
            if r.spec.kind == "sim" and r.spec.app == "bl2d"
            and r.spec.partitioner == "nature+fable"
        )
        assert table["step"].size == sim.arrays["step"].size

    def test_scan_full_columns_without_projection(self, warm):
        store, wh, _, _ = warm
        chunks = list(scan(
            wh, "steps", filters={"partitioner": "penalties"}
        ))
        assert chunks
        for chunk in chunks:
            assert "beta_c" in chunk and "key" in chunk

    def test_partition_pruning_skips_non_matching(self, warm):
        store, wh, _, _ = warm
        opened = []
        real_read = wh.format.read

        class Spy(NpzColumnFormat):
            def read(self, path, columns=None):
                opened.append(path)
                return real_read(path, columns=columns)

        spied = Warehouse(wh.root)
        spied.format = Spy()
        rows = scan_table(
            spied, "steps", columns=["app"], filters={"app": "sc2d"}
        )
        assert set(rows["app"]) == {"sc2d"}
        assert opened
        assert all("app=sc2d" in str(p) for p in opened)

    def test_row_filter_on_non_partition_column(self, warm):
        store, wh, _, _ = warm
        table = scan_table(
            wh, "steps", columns=["step", "app"],
            filters={"partitioner": "nature+fable", "step": 0},
        )
        assert set(table["step"]) == {0}
        assert table["step"].size == 2  # one step-0 row per app

    def test_runs_table_scan(self, warm):
        store, wh, results, _ = warm
        table = scan_table(
            wh, "runs", columns=["key", "app", "kind", "n_steps"]
        )
        expected = {r.key for r in results if r.spec.kind != "trace"}
        assert set(table["key"]) == expected

    def test_missing_column_names_the_shard(self, warm):
        store, wh, _, _ = warm
        with pytest.raises(ValueError, match="no column"):
            scan_table(wh, "steps", columns=["beta_c", "load_imbalance"])

    def test_group_stats_matches_numpy(self, warm):
        store, wh, _, _ = warm
        filters = {"partitioner": ("nature+fable", "patch-lpt")}
        stats = group_stats(
            wh, "steps", by=["app", "partitioner"],
            values=["load_imbalance"], filters=filters,
        )
        raw = scan_table(
            wh, "steps", columns=["app", "partitioner", "load_imbalance"],
            filters=filters,
        )
        assert len(stats) == 4  # 2 apps x 2 partitioners
        for (app, part), per_value in stats.items():
            mask = (raw["app"] == app) & (raw["partitioner"] == part)
            data = raw["load_imbalance"][mask].astype(np.float64)
            entry = per_value["load_imbalance"]
            assert entry["count"] == int(mask.sum())
            assert entry["mean"] == pytest.approx(data.mean())
            assert entry["std"] == pytest.approx(data.std())
            assert entry["min"] == pytest.approx(data.min())
            assert entry["max"] == pytest.approx(data.max())

    def test_group_stats_is_chunk_order_independent(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store, partitioners=("nature+fable", "patch-lpt"))
        coarse = Warehouse(tmp_path / "one-chunk")
        coarse.build(store)
        fine = Warehouse(tmp_path / "many-chunks")
        fine.build(store, max_rows_per_shard=2)
        kwargs = dict(
            table="steps", by=["partitioner"], values=["relative_comm"],
            filters={"partitioner": ("nature+fable", "patch-lpt")},
        )
        a = group_stats(coarse, **kwargs)
        b = group_stats(fine, **kwargs)
        assert a.keys() == b.keys()
        for key in a:
            for name in a[key]:
                for stat in ("count", "mean", "std", "min", "max"):
                    assert a[key][name][stat] == pytest.approx(
                        b[key][name][stat]
                    )

    def test_status_counts_pending(self, tmp_path):
        store = _store(tmp_path)
        _seed_runs(store)
        wh = Warehouse(tmp_path / "wh")
        before = wh.status(store)
        assert before["runs"] == 0 and before["pending"] == 2
        wh.build(store)
        after = wh.status(store)
        assert after["runs"] == 2 and after["pending"] == 0
        assert after["rows"] > 0 and after["bytes"] > 0
        assert len(after["partitions"]) == 2


class TestFormats:
    def test_npz_write_read_columns(self, tmp_path):
        fmt = NpzColumnFormat()
        path = tmp_path / "part-abc.npz"
        cols = {
            "a": np.array([1, 2, 3], dtype=np.int64),
            "b": np.array([1.5, np.nan, -0.0]),
        }
        nbytes = fmt.write(path, cols)
        assert nbytes == path.stat().st_size
        assert sorted(fmt.columns(path)) == ["a", "b"]
        back = fmt.read(path, columns=["b"])
        assert list(back) == ["b"]
        assert back["b"].tobytes() == cols["b"].tobytes()

    def test_npz_shards_are_deterministic(self, tmp_path):
        fmt = NpzColumnFormat()
        cols = {"a": np.arange(5), "b": np.linspace(0, 1, 5)}
        fmt.write(tmp_path / "x.npz", cols)
        fmt.write(tmp_path / "y.npz", cols)
        assert (
            (tmp_path / "x.npz").read_bytes()
            == (tmp_path / "y.npz").read_bytes()
        )

    def test_misaligned_columns_rejected(self, tmp_path):
        fmt = NpzColumnFormat()
        with pytest.raises(ValueError, match="aligned"):
            fmt.write(
                tmp_path / "bad.npz",
                {"a": np.arange(3), "b": np.arange(4)},
            )

    def test_resolve_format(self):
        assert resolve_format(None).name == "npz"
        assert resolve_format("npz").name == "npz"
        fmt = NpzColumnFormat()
        assert resolve_format(fmt) is fmt
        with pytest.raises(ValueError, match="unknown warehouse format"):
            resolve_format("feather")

    @pytest.mark.skipif(
        parquet_available(), reason="pyarrow installed in this environment"
    )
    def test_parquet_unavailable_is_informative(self):
        from repro.warehouse import ParquetFormat

        with pytest.raises(RuntimeError, match="pyarrow"):
            ParquetFormat()

    @pytest.mark.skipif(
        not parquet_available(), reason="needs the pyarrow extra"
    )
    def test_parquet_scan_matches_npz(self, tmp_path):
        store = _store(tmp_path)
        results = _seed_runs(store)
        npz_wh = Warehouse(tmp_path / "npz", format="npz")
        pq_wh = Warehouse(tmp_path / "parquet", format="parquet")
        assert npz_wh.build(store).runs == pq_wh.build(store).runs == 2
        for result in results:
            if result.spec.kind == "trace":
                continue
            a = npz_wh.run_series(result.key)
            b = pq_wh.run_series(result.key)
            assert sorted(a) == sorted(b)
            for name in a:
                assert np.array_equal(a[name], b[name], equal_nan=True)
        ka = group_stats(
            npz_wh, by=["app"], values=["time"],
            filters={"partitioner": "nature+fable"},
        )
        kb = group_stats(
            pq_wh, by=["app"], values=["time"],
            filters={"partitioner": "nature+fable"},
        )
        assert ka == kb


class TestReportParity:
    def test_figures_from_warehouse_identical(self, warm):
        from repro.experiments import figure1, figure_app

        store, wh, _, _ = warm
        for via_store, via_wh in (
            (
                figure1(scale="small", nprocs=NPROCS, store=store),
                figure1(scale="small", nprocs=NPROCS, store=store,
                        warehouse=wh),
            ),
            (
                figure_app("sc2d", scale="small", nprocs=NPROCS,
                           store=store),
                figure_app("sc2d", scale="small", nprocs=NPROCS,
                           store=store, warehouse=wh),
            ),
        ):
            assert sorted(via_store) == sorted(via_wh)
            for name, value in via_store.items():
                if isinstance(value, np.ndarray):
                    assert via_wh[name].dtype == value.dtype
                    assert np.array_equal(
                        via_wh[name], value, equal_nan=True
                    )
                else:
                    assert via_wh[name] == value

    def test_warehouse_path_never_computes(self, warm, tmp_path):
        from repro.experiments import figure1

        store, wh, _, _ = warm
        empty = Warehouse(tmp_path / "empty")
        with pytest.raises(KeyError, match="warehouse build"):
            figure1(scale="small", nprocs=NPROCS, store=store,
                    warehouse=empty)


class TestIterResults:
    def test_streams_meta_with_bookkeeping(self, tmp_path):
        store = _store(tmp_path)
        results = _seed_runs(store)
        listed = dict(store.iter_results())
        # The two runs plus their shared trace, one per object directory.
        assert set(listed) == {r.key for r in results} | {
            results[0].spec.input_keys()[0]
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

    def test_corrupt_entry_warn_skipped_and_retired(self, tmp_path):
        store = _store(tmp_path)
        results = _seed_runs(store)
        victim = results[0].key
        (store.entry_dir(victim) / "meta.json").write_text("not json{")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            listed = dict(store.iter_results())
        assert victim not in listed
        assert len(listed) == 2  # trace + the surviving run
        assert not store.has(victim)  # retired, next publish repairs

    def test_empty_store(self, tmp_path):
        store = _store(tmp_path)
        assert list(store.iter_results()) == []


class TestCli:
    def _cli(self, args, cache_dir) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        src = str(Path(__file__).resolve().parents[1] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env,
        )

    def test_warehouse_lifecycle(self, tmp_path):
        cache = tmp_path / "cli-store"
        run = self._cli(
            ["run", "--app", "bl2d", "--scale", "small",
             "--nprocs", str(NPROCS)],
            cache,
        )
        assert run.returncode == 0, run.stderr

        preview = self._cli(["warehouse", "build", "--preview"], cache)
        assert preview.returncode == 0, preview.stderr
        assert "1 new runs" in preview.stdout
        assert not (cache / "warehouse").exists()

        build = self._cli(["warehouse", "build"], cache)
        assert build.returncode == 0, build.stderr
        assert "ingested 1 runs" in build.stdout

        rebuild = self._cli(["warehouse", "build", "--quiet"], cache)
        assert "ingested 0 runs" in rebuild.stdout

        status = self._cli(["warehouse", "status", "--json"], cache)
        assert status.returncode == 0, status.stderr
        doc = json.loads(status.stdout)
        assert doc["runs"] == 1 and doc["pending"] == 0
        assert doc["format"] == "npz"

        rows = self._cli(
            ["warehouse", "query", "--table", "runs",
             "--columns", "key,app,n_steps", "--json"],
            cache,
        )
        assert rows.returncode == 0, rows.stderr
        parsed = json.loads(rows.stdout)
        assert len(parsed) == 1 and parsed[0]["app"] == "bl2d"

        grouped = self._cli(
            ["warehouse", "query", "--group-by", "app,partitioner",
             "--stats", "load_imbalance",
             "--where", "partitioner=nature+fable"],
            cache,
        )
        assert grouped.returncode == 0, grouped.stderr
        assert "load_imbalance" in grouped.stdout
        assert "bl2d" in grouped.stdout

    def test_report_from_warehouse_byte_identical(self, tmp_path):
        cache = tmp_path / "cli-store"
        args = ["report", "--figures", "1", "--scale", "small",
                "--nprocs", str(NPROCS), "--quiet"]
        via_store = self._cli(args, cache)
        assert via_store.returncode == 0, via_store.stderr
        build = self._cli(["warehouse", "build", "--quiet"], cache)
        assert build.returncode == 0, build.stderr
        via_wh = self._cli([*args, "--from-warehouse"], cache)
        assert via_wh.returncode == 0, via_wh.stderr
        assert via_wh.stdout == via_store.stdout

    def test_report_from_empty_warehouse_hints_build(self, tmp_path):
        cache = tmp_path / "cli-store"
        run = self._cli(
            ["run", "--app", "bl2d", "--scale", "small",
             "--nprocs", str(NPROCS)],
            cache,
        )
        assert run.returncode == 0, run.stderr
        report = self._cli(
            ["report", "--figures", "1", "--scale", "small",
             "--nprocs", str(NPROCS), "--quiet", "--from-warehouse"],
            cache,
        )
        assert report.returncode == 1
        assert "repro warehouse build" in report.stderr

    def test_cache_ls_json(self, tmp_path):
        cache = tmp_path / "cli-store"
        run = self._cli(
            ["run", "--app", "bl2d", "--scale", "small",
             "--nprocs", str(NPROCS)],
            cache,
        )
        assert run.returncode == 0, run.stderr
        ls = self._cli(["cache", "ls", "--json"], cache)
        assert ls.returncode == 0, ls.stderr
        docs = json.loads(ls.stdout)
        assert len(docs) == 2  # trace + sim
        for doc in docs:
            assert set(doc) >= {
                "key", "kind", "app", "scale", "bytes", "age_seconds"
            }
            assert doc["bytes"] > 0 and doc["age_seconds"] >= 0
        only_sim = self._cli(["cache", "ls", "--json", "--kind", "sim"],
                             cache)
        assert [d["kind"] for d in json.loads(only_sim.stdout)] == ["sim"]
