"""Tests for the spec dependency graph and the DAG executor.

The acceptance contract of the spec-graph redesign: explicit input
edges, diamond-shaped graphs resolve once per node, a sim sweep over a
warm store schedules **zero** trace jobs, resume works layer by layer,
and a missing input fails cleanly instead of cascading.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    MissingInputError,
    ResultStore,
    build_plan,
    run_specs,
    sim_spec,
    penalties_spec,
    toposort_layers,
    trace_spec,
)
from repro.engine import cli
from repro.engine import executor as executor_module
from repro.experiments.workloads import _cached_trace, paper_trace

NPROCS = 4


@pytest.fixture(autouse=True)
def _fresh_trace_memo():
    """Each test sees a cold in-process memo (stores are per-test tmp dirs)."""
    _cached_trace.cache_clear()
    yield


def _count_executes(monkeypatch):
    computed: list[str] = []
    real_execute = executor_module.execute

    def counting_execute(spec, store=None):
        computed.append(spec.label())
        return real_execute(spec, store)

    monkeypatch.setattr(executor_module, "execute", counting_execute)
    return computed


class TestToposort:
    def test_diamond(self):
        #    a
        #   / \
        #  b   c
        #   \ /
        #    d
        layers = toposort_layers(
            {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]}
        )
        assert layers == [["a"], ["b", "c"], ["d"]]

    def test_external_deps_treated_as_satisfied(self):
        layers = toposort_layers({"b": ["outside"], "c": ["b"]})
        assert layers == [["b"], ["c"]]

    def test_cycle_raises(self):
        with pytest.raises(ValueError, match="cycle"):
            toposort_layers({"a": ["b"], "b": ["a"]})

    def test_order_deterministic(self):
        layers = toposort_layers({"z": [], "a": [], "m": ["z"]})
        assert layers == [["z", "a"], ["m"]]


class TestBuildPlan:
    def test_inputs_are_explicit_edges(self):
        sim = sim_spec("bl2d", "small", nprocs=NPROCS)
        (trace,) = sim.inputs()
        assert trace == trace_spec("bl2d", "small")
        assert sim.input_keys() == (trace.key(),)
        assert trace.inputs() == ()

    def test_diamond_shares_one_trace_node(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sim = sim_spec("bl2d", "small", nprocs=NPROCS)
        pen = penalties_spec("bl2d", "small", nprocs=NPROCS)
        plan = build_plan([sim, pen], store)
        # Three nodes: the two submitted jobs plus ONE shared trace input.
        assert len(plan.nodes) == 3
        trace_key = trace_spec("bl2d", "small").key()
        assert plan.layers == ((trace_key,), (sim.key(), pen.key()))
        node = plan.node(trace_key)
        assert not node.submitted and node.pending
        assert sorted(plan.edges()) == sorted(
            [(sim.key(), trace_key), (pen.key(), trace_key)]
        )

    def test_submitted_trace_absorbs_implicit_input(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace = trace_spec("bl2d", "small")
        sim = sim_spec("bl2d", "small", nprocs=NPROCS)
        plan = build_plan([trace, sim], store)
        assert len(plan.nodes) == 2
        assert plan.node(trace.key()).submitted

    def test_duplicates_collapse(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sim = sim_spec("bl2d", "small", nprocs=NPROCS)
        plan = build_plan([sim, sim, sim], store)
        assert plan.counts()["submitted"] == 1

    def test_counts_and_stored_pruning(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        paper_trace("bl2d", "small", store=store)  # warm the trace layer
        sim = sim_spec("bl2d", "small", nprocs=NPROCS)
        plan = build_plan([sim], store)
        counts = plan.counts()
        assert counts == {
            "nodes": 2,
            "submitted": 1,
            "stored": 0,
            "compute": 1,
            "implicit_compute": 0,
            "layers": 1,
        }
        # The stored trace satisfies the edge: the sim is layer 0.
        assert plan.layers == ((sim.key(),),)


class TestDagExecutor:
    def _sweep(self):
        return [
            sim_spec(app, "small", nprocs=NPROCS, partitioner=part)
            for app in ("bl2d", "tp2d")
            for part in ("nature+fable", "domain-sfc-hilbert")
        ]

    def test_warm_store_sim_sweep_executes_zero_trace_jobs(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        # Pre-warm ONLY the trace layer (e.g. a previous trace sweep).
        run_specs(
            [trace_spec("bl2d", "small"), trace_spec("tp2d", "small")],
            store=store,
        )
        _cached_trace.cache_clear()  # drop the in-process memo too
        computed = _count_executes(monkeypatch)
        results = run_specs(self._sweep(), store=store)
        assert len(results) == 4
        # Dependency resolution hit the stored traces: zero trace jobs.
        assert all(label.startswith("sim:") for label in computed)
        assert len(computed) == 4

    def test_cold_store_schedules_traces_first(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        computed = _count_executes(monkeypatch)
        run_specs(self._sweep(), store=store)
        assert computed[:2] == ["trace:bl2d:small", "trace:tp2d:small"]
        assert all(label.startswith("sim:") for label in computed[2:])

    def test_resume_after_trace_layer(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        specs = self._sweep()
        # "Killed" run that only finished the trace layer plus one sim.
        run_specs(specs[:1], store=store)
        run_specs([trace_spec("tp2d", "small")], store=store)
        _cached_trace.cache_clear()
        computed = _count_executes(monkeypatch)
        results = run_specs(specs, store=store)
        assert len(results) == len(specs)
        assert computed == [s.label() for s in specs[1:]]

    def test_parallel_layers_bit_identical_to_serial(self, tmp_path):
        import numpy as np

        specs = self._sweep()
        serial = run_specs(specs, n_jobs=1, store=ResultStore(tmp_path / "a"))
        parallel = run_specs(specs, n_jobs=2, store=ResultStore(tmp_path / "b"))
        for ser, par in zip(serial, parallel):
            assert ser.key == par.key
            assert ser.meta == par.meta
            for name in ser.arrays:
                assert np.array_equal(ser.arrays[name], par.arrays[name])

    def test_missing_input_fails_cleanly(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        real_execute = executor_module.execute
        executed: list[str] = []

        def broken_execute(spec, store=None):
            executed.append(spec.label())
            if spec.kind == "trace":
                # Simulate a worker that died before publishing: return a
                # result but leave nothing in the store.
                class _Hollow:
                    key = spec.key()
                    arrays = {}
                    meta = {}

                return _Hollow()
            return real_execute(spec, store)

        monkeypatch.setattr(executor_module, "execute", broken_execute)
        monkeypatch.setattr(
            type(store), "put_result", lambda self, result, overwrite=False: None
        )
        with pytest.raises(MissingInputError, match="trace:bl2d:small"):
            run_specs(
                [sim_spec("bl2d", "small", nprocs=NPROCS)], store=store
            )
        # The dependent sim was never attempted.
        assert executed == ["trace:bl2d:small"]

    def test_stored_result_with_evicted_trace_executes_zero_jobs(
        self, tmp_path, monkeypatch, capsys
    ):
        # `repro cache gc` can evict a trace whose results stay stored: no
        # pending node consumes the trace, so nothing may regenerate it.
        store = ResultStore(tmp_path / "store")
        sim = sim_spec("tp2d", "small", nprocs=NPROCS)
        run_specs([sim], store=store)
        trace_key = trace_spec("tp2d", "small").key()
        assert store.remove(trace_key)
        _cached_trace.cache_clear()
        plan = build_plan([sim], store)
        assert plan.counts()["implicit_compute"] == 0
        assert plan.layers == ()
        node = plan.node(trace_key)
        assert not node.stored and not node.pending
        computed = _count_executes(monkeypatch)
        [result] = run_specs([sim], store=store)
        assert computed == []
        assert result.key == sim.key()
        assert not store.has(trace_key)
        # The plan/graph views still render the unneeded input.
        args = ["--scale", "small", "--apps", "tp2d",
                "--partitioners", "nature+fable", "--nprocs", str(NPROCS),
                "--cache-dir", str(store.root)]
        assert cli.main(["plan", *args]) == 0
        out = capsys.readouterr().out
        assert "skip trace:tp2d:small" in out and "nothing to compute" in out
        assert cli.main(["graph", *args]) == 0
        assert "<- trace:tp2d:small [not needed]" in capsys.readouterr().out

    def test_progress_reports_trace_inputs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        lines: list[str] = []
        run_specs(
            [sim_spec("bl2d", "small", nprocs=NPROCS)],
            store=store,
            progress=lines.append,
        )
        assert any("(+1 trace input)" in line for line in lines)
        assert any(line.startswith("layer 0") for line in lines)


class TestPlanCli:
    def _cli(self, args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cli-store")
        src = str(Path(__file__).resolve().parents[1] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    GRID = ["--scale", "small", "--apps", "bl2d",
            "--partitioners", "nature+fable,patch-lpt",
            "--nprocs", str(NPROCS)]

    def test_plan_cold_then_warm(self, tmp_path):
        cold = self._cli(["plan", *self.GRID], tmp_path)
        assert cold.returncode == 0, cold.stderr
        assert "2 to compute (+1 trace input)" in cold.stdout
        assert "run  trace:bl2d:small" in cold.stdout
        assert "layer 1 (2 jobs)" in cold.stdout
        sweep = self._cli(["sweep", *self.GRID, "--quiet"], tmp_path)
        assert sweep.returncode == 0, sweep.stderr
        warm = self._cli(["plan", *self.GRID], tmp_path)
        assert warm.returncode == 0, warm.stderr
        assert "0 to compute" in warm.stdout
        assert "hit  trace:bl2d:small" in warm.stdout
        assert "nothing to compute" in warm.stdout

    def test_graph_lists_edges(self, tmp_path):
        out = self._cli(["graph", *self.GRID], tmp_path)
        assert out.returncode == 0, out.stderr
        assert (
            "sim:bl2d:small:nature+fable:P4 [compute] <- "
            "trace:bl2d:small [compute]" in out.stdout
        )
        dot = self._cli(["graph", *self.GRID, "--dot"], tmp_path)
        assert dot.returncode == 0
        assert dot.stdout.startswith("digraph specs {")

    def test_plan_fails_on_unresolvable_specs(self, tmp_path):
        out = self._cli(
            ["plan", "--scale", "small", "--apps", "warp9"], tmp_path
        )
        assert out.returncode != 0
        assert "unknown app" in out.stderr

    def test_describe_lists_components(self, tmp_path):
        out = self._cli(["describe", "--kind", "partitioner"], tmp_path)
        assert out.returncode == 0, out.stderr
        assert "nature+fable" in out.stdout
        assert "--param atomic_unit" in out.stdout

    def test_describe_sees_scales_in_fresh_process(self, tmp_path):
        # The built-in scales register via the workload layer, which the
        # describe command must pull in itself.
        out = self._cli(["describe", "--kind", "scale"], tmp_path)
        assert out.returncode == 0, out.stderr
        assert "scale (4 registered)" in out.stdout
        assert "paper" in out.stdout and "small" in out.stdout
        assert "deep" in out.stdout and "ultra" in out.stdout

    def test_cache_gc(self, tmp_path):
        sweep = self._cli(["sweep", *self.GRID, "--quiet"], tmp_path)
        assert sweep.returncode == 0, sweep.stderr
        ls = self._cli(["cache", "ls"], tmp_path)
        assert "3 entries" in ls.stdout  # 2 sims + the shared trace
        keep = self._cli(["cache", "gc", "--older-than", "1d"], tmp_path)
        assert "evicted 0 entries" in keep.stdout
        assert "0.0 MB reclaimed" in keep.stdout
        # The store-wide total after gc is part of the report.
        assert "store now holds 3 entries" in keep.stdout
        evict = self._cli(["cache", "gc", "--max-bytes", "0"], tmp_path)
        assert "evicted 3 entries" in evict.stdout
        assert "MB reclaimed" in evict.stdout
        assert "store now holds 0 entries, 0.0 MB" in evict.stdout
        assert "0 entries" in self._cli(["cache", "ls"], tmp_path).stdout
        bad = self._cli(["cache", "gc"], tmp_path)
        assert bad.returncode != 0
