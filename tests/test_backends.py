"""Tests for the execution-backend subsystem and the cluster queue.

Covers the backend registry/resolution contract, the lease-file queue
protocol, serial/process/cluster result parity (bit-identical stores),
the worker daemon, and the failure paths the broker exists for: a
worker SIGKILLed mid-job gets its lease expired and the job requeued to
completion, retry-cap exhaustion surfaces the failing spec key, and
corrupt store entries degrade to cache misses instead of crashes.
"""

from __future__ import annotations

import hashlib
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
    ClusterJobError,
    JobQueue,
    ProcessBackend,
    ResultStore,
    SerialBackend,
    Worker,
    resolve_backend,
    run_spec,
    run_specs,
    sim_spec,
    trace_spec,
)
from repro.engine import cli
from repro.engine.backends import backend_names
from repro.engine.backends.worker import FAIL_KEYS_ENV
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


def _threaded_worker(store, queue=None, **kwargs):
    """A Worker served from a daemon thread (cheap in-process cluster)."""
    worker = Worker(
        store,
        queue,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        **kwargs,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _fast_cluster(**overrides) -> ClusterBackend:
    kwargs = dict(
        lease_timeout=10.0,
        poll_interval=0.05,
        stall_timeout=60.0,
        max_attempts=3,
    )
    kwargs.update(overrides)
    return ClusterBackend(**kwargs)


class TestBackendRegistry:
    def test_builtins_registered(self):
        names = tuple(registry("backend"))
        assert names == ("serial", "process", "cluster")
        assert backend_names() == names

    def test_default_resolution_tracks_n_jobs(self):
        assert isinstance(resolve_backend(None, n_jobs=1), SerialBackend)
        backend = resolve_backend(None, n_jobs=3)
        assert isinstance(backend, ProcessBackend)
        assert backend.n_jobs == 3

    def test_names_and_instances_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        cluster = resolve_backend("cluster", workers=2)
        assert isinstance(cluster, ClusterBackend)
        assert cluster.workers == 2
        instance = ClusterBackend(workers=5)
        assert resolve_backend(instance) is instance

    def test_unknown_backend_and_bad_type(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("slurm-maybe-later")
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_workers_only_for_cluster(self):
        with pytest.raises(ValueError, match="only meaningful"):
            resolve_backend("process", workers=2)
        with pytest.raises(ValueError, match="only meaningful"):
            resolve_backend(None, workers=2)
        with pytest.raises(ValueError, match="backend instance"):
            resolve_backend(ClusterBackend(), workers=2)
        # workers=0 means "external workers" and is never an error.
        assert isinstance(resolve_backend("serial", workers=0), SerialBackend)

    def test_registry_create_validates_params(self):
        backend = create("backend", "process", n_jobs=3)
        assert backend.n_jobs == 3
        with pytest.raises(ValueError, match="unknown parameter"):
            create("backend", "cluster", warp_factor=9)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(n_jobs=0)
        with pytest.raises(ValueError):
            ClusterBackend(workers=-1)
        with pytest.raises(ValueError):
            ClusterBackend(max_attempts=0)


class TestJobQueue:
    def _queue(self, tmp_path) -> JobQueue:
        return JobQueue(tmp_path / "queue")

    def test_enqueue_once(self, tmp_path):
        queue = self._queue(tmp_path)
        spec = trace_spec("tp2d", "small")
        assert queue.enqueue(spec, max_attempts=5)
        assert not queue.enqueue(spec)  # existing ticket kept
        (ticket,) = queue.tickets()
        assert ticket["key"] == spec.key()
        assert ticket["attempt"] == 0
        assert ticket["max_attempts"] == 5
        assert ticket["label"] == spec.label()

    def test_claim_is_exclusive(self, tmp_path):
        queue = self._queue(tmp_path)
        key = trace_spec("tp2d", "small").key()
        assert queue.claim(key, "alice", attempt=0)
        assert not queue.claim(key, "bob", attempt=0)
        lease = queue.read_lease(key)
        assert lease["owner"] == "alice"

    def test_heartbeat_only_by_owner(self, tmp_path):
        queue = self._queue(tmp_path)
        key = trace_spec("tp2d", "small").key()
        queue.claim(key, "alice", attempt=0, now=100.0)
        assert queue.heartbeat(key, "alice", now=200.0)
        assert queue.read_lease(key)["heartbeat_at"] == 200.0
        assert not queue.heartbeat(key, "bob", now=300.0)
        assert queue.read_lease(key)["heartbeat_at"] == 200.0

    def test_expire_requeues_and_charges_attempt(self, tmp_path):
        queue = self._queue(tmp_path)
        spec = trace_spec("tp2d", "small")
        key = spec.key()
        queue.enqueue(spec)
        queue.claim(key, "crashed", attempt=0, now=100.0)
        assert queue.expire_leases(30.0, now=120.0) == []  # still fresh
        (expired,) = queue.expire_leases(30.0, now=200.0)
        assert expired["owner"] == "crashed"
        assert queue.read_lease(key) is None
        assert queue.read_ticket(key)["attempt"] == 1

    def test_attempt_not_double_charged(self, tmp_path):
        queue = self._queue(tmp_path)
        spec = trace_spec("tp2d", "small")
        key = spec.key()
        queue.enqueue(spec)
        queue.bump_attempt(key, expected=0)
        # The crashed worker's belated failure report charges the same
        # attempt the expiry sweep already charged.
        queue.bump_attempt(key, expected=0)
        assert queue.read_ticket(key)["attempt"] == 1

    def test_fail_records_and_releases(self, tmp_path):
        queue = self._queue(tmp_path)
        spec = trace_spec("tp2d", "small")
        key = spec.key()
        queue.enqueue(spec)
        queue.claim(key, "alice", attempt=0)
        queue.fail(key, "alice", attempt=0, error="Traceback ...\nBoom")
        assert queue.read_lease(key) is None
        assert queue.read_ticket(key)["attempt"] == 1
        (record,) = queue.failures(key)
        assert record["owner"] == "alice"
        assert "Boom" in record["error"]
        assert queue.clear_failures(key) == 1
        assert queue.failures(key) == []

    def test_complete_cleans_up(self, tmp_path):
        queue = self._queue(tmp_path)
        spec = trace_spec("tp2d", "small")
        key = spec.key()
        queue.enqueue(spec)
        queue.claim(key, "alice", attempt=0)
        queue.complete(key, "alice")
        assert queue.tickets() == []
        assert queue.read_lease(key) is None

    def test_worker_registry(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.register_worker("w1", now=100.0)
        queue.heartbeat_worker("w1", jobs_done=3, now=150.0)
        (doc,) = queue.alive_workers(60.0, now=200.0)
        assert doc["worker_id"] == "w1"
        assert doc["jobs_done"] == 3
        assert queue.alive_workers(60.0, now=500.0) == []
        queue.unregister_worker("w1")
        assert queue.workers() == []


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


class TestWorkerDaemon:
    def test_max_jobs_exit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = JobQueue.for_store(store)
        spec = trace_spec("tp2d", "small")
        queue.enqueue(spec)
        worker = Worker(store, queue, poll_interval=0.02,
                        heartbeat_interval=0.1, max_jobs=1)
        assert worker.run() == 1
        assert store.has(spec.key())
        assert queue.tickets() == []
        assert queue.workers() == []  # unregistered on clean exit

    def test_idle_timeout_exit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        worker = Worker(store, poll_interval=0.02, heartbeat_interval=0.1,
                        idle_timeout=0.1)
        started = time.time()
        assert worker.run() == 0
        assert time.time() - started < 10.0

    def test_stale_ticket_for_stored_key_is_retired(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = JobQueue.for_store(store)
        spec = trace_spec("tp2d", "small")
        paper_trace("tp2d", "small", store=store)  # already computed
        queue.enqueue(spec)
        worker = Worker(store, queue, poll_interval=0.02,
                        heartbeat_interval=0.1, idle_timeout=0.2)
        assert worker.run() == 0  # nothing to compute
        assert queue.tickets() == []

    def test_corrupt_ticket_records_failure(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = JobQueue.for_store(store)
        spec = trace_spec("tp2d", "small")
        queue.enqueue(spec)
        # Corrupt the ticket: spec payload that hashes to a different key.
        ticket = queue.read_ticket(spec.key())
        ticket["spec"]["app"] = "bl2d"
        queue._write_json(queue.ticket_path(spec.key()), ticket)
        worker = Worker(store, queue, poll_interval=0.02,
                        heartbeat_interval=0.1, idle_timeout=0.3)
        worker.run()
        assert worker.jobs_failed >= 1
        (record, *_) = queue.failures(spec.key())
        assert "corrupt ticket" in record["error"]


class TestClusterBackend:
    def test_threaded_cluster_matches_serial(self, tmp_path):
        specs = _sweep(apps=("tp2d", "bl2d"))
        serial = run_specs(specs, store=ResultStore(tmp_path / "ser"))
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        worker, thread = _threaded_worker(store, queue)
        try:
            results = run_specs(specs, store=store, backend=_fast_cluster())
            # The busy worker kept its registry heartbeat fresh while
            # draining back-to-back jobs (it unregisters on exit).
            assert queue.alive_workers(60.0)
        finally:
            worker.stop()
            thread.join(timeout=10.0)
        for ser, clu in zip(serial, results):
            assert ser.key == clu.key
            for name in ser.arrays:
                assert np.array_equal(ser.arrays[name], clu.arrays[name])
        # The broker cleaned the queue behind itself.
        assert queue.tickets() == []
        assert queue.leases() == []

    def test_verbose_status_lines(self, tmp_path):
        store = ResultStore(tmp_path / "clu")
        worker, thread = _threaded_worker(store)
        lines: list[str] = []
        try:
            run_specs(_sweep(), store=store, backend=_fast_cluster(),
                      verbose=True, progress=lines.append)
        finally:
            worker.stop()
            thread.join(timeout=10.0)
        assert any("enqueued" in line for line in lines)
        assert any("queued" in line and "leased" in line for line in lines)

    def test_stale_lease_is_requeued(self, tmp_path):
        # A lease left by a dead worker (old heartbeat, no process
        # behind it) must expire and the job complete elsewhere.
        specs = _sweep(partitioners=("nature+fable",))
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        stale_key = specs[0].inputs()[0].key()  # the trace job
        assert queue.claim(stale_key, "ghost", attempt=0,
                           now=time.time() - 3600.0)
        worker, thread = _threaded_worker(store, queue)
        lines: list[str] = []
        try:
            results = run_specs(
                specs, store=store,
                backend=_fast_cluster(lease_timeout=0.5),
                progress=lines.append,
            )
        finally:
            worker.stop()
            thread.join(timeout=10.0)
        assert results[0].arrays["step"].size > 0
        assert any("lease expired: requeued" in line for line in lines)
        assert any("ghost" in line for line in lines)

    def test_retry_cap_reports_failing_spec(self, tmp_path, monkeypatch):
        specs = _sweep()  # two sims, one shared trace
        poisoned = specs[0]
        monkeypatch.setenv(FAIL_KEYS_ENV, poisoned.key())
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        worker, thread = _threaded_worker(store, queue)
        try:
            with pytest.raises(ClusterJobError) as excinfo:
                run_specs(specs, store=store,
                          backend=_fast_cluster(max_attempts=2))
        finally:
            worker.stop()
            thread.join(timeout=10.0)
        message = str(excinfo.value)
        assert poisoned.label() in message
        assert poisoned.key()[:12] in message
        assert "injected failure" in message
        # The cap bounded the attempts, each one on the record.
        assert len(queue.failures(poisoned.key())) == 2
        assert excinfo.value.failures[poisoned.key()]
        # The healthy sibling job still completed.
        assert store.has(specs[1].key())

    def test_force_recomputes_through_cluster(self, tmp_path):
        specs = _sweep(partitioners=("nature+fable",))
        store = ResultStore(tmp_path / "clu")
        warm = run_specs(specs, store=store)  # serial warm-up
        worker, thread = _threaded_worker(store)
        try:
            forced = run_specs(specs, store=store,
                               backend=_fast_cluster(), force=True)
        finally:
            worker.stop()
            thread.join(timeout=10.0)
        # The forced sim really re-executed on a worker (no silent
        # store-hit), and reproduced the same bits.
        assert worker.jobs_done == 1
        for old, new in zip(warm, forced):
            assert old.key == new.key
            for name in old.arrays:
                assert np.array_equal(old.arrays[name], new.arrays[name])

    def test_no_workers_stalls_with_diagnosis(self, tmp_path):
        store = ResultStore(tmp_path / "clu")
        lines: list[str] = []
        backend = _fast_cluster(stall_timeout=0.6, lease_timeout=0.5)
        with pytest.raises(RuntimeError, match="stalled"):
            run_specs(_sweep(), store=store, backend=backend,
                      progress=lines.append)
        assert any("no alive workers" in line for line in lines)

    def test_placement_report(self, tmp_path):
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        queue.register_worker("w-alpha")
        backend = _fast_cluster(workers=2)
        from repro.engine import build_plan

        plan = build_plan(_sweep(), store)
        lines = backend.placement(plan, store)
        text = "\n".join(lines)
        assert "shared queue" in text
        assert "w-alpha" in text
        assert "auto-spawn 2" in text


class TestClusterProcesses:
    """End-to-end tests over real `repro worker` subprocesses."""

    def test_autospawned_cluster_store_bit_identical(self, tmp_path):
        specs = _sweep(apps=("tp2d", "bl2d"))
        run_specs(specs, store=ResultStore(tmp_path / "ser"),
                  backend="serial")
        clu = ResultStore(tmp_path / "clu")
        run_specs(specs, store=clu,
                  backend=_fast_cluster(workers=2, stall_timeout=180.0))
        assert _store_file_hashes(ResultStore(tmp_path / "ser")) == (
            _store_file_hashes(clu)
        )

    def test_sigkilled_worker_job_requeued_to_completion(self, tmp_path):
        specs = _sweep(apps=("tp2d", "bl2d"))
        run_specs(specs, store=ResultStore(tmp_path / "ser"),
                  backend="serial")
        store = ResultStore(tmp_path / "clu")
        queue = JobQueue.for_store(store)
        # A kamikaze worker that SIGKILLs itself after its first claim,
        # while holding the lease — plus one healthy auto-spawned worker.
        kamikaze = _spawn_worker(store.root, "--die-after-claims", "1")
        try:
            deadline = time.time() + 60.0
            while not queue.alive_workers(30.0):
                assert time.time() < deadline, "kamikaze never registered"
                time.sleep(0.05)
            lines: list[str] = []
            backend = _fast_cluster(
                workers=1, lease_timeout=1.5, poll_interval=0.1,
                stall_timeout=180.0,
            )
            run_specs(specs, store=store, backend=backend,
                      progress=lines.append)
        finally:
            kamikaze.wait(timeout=30.0)
        # The kamikaze really did die mid-job, by its own SIGKILL...
        assert kamikaze.returncode == -9
        # ...yet the sweep converged: every job completed exactly once,
        # bit-identical to the serial store.
        assert any("lease expired: requeued" in line for line in lines)
        assert _store_file_hashes(ResultStore(tmp_path / "ser")) == (
            _store_file_hashes(store)
        )
        assert queue.tickets() == []

    def test_worker_cli_idle_exit(self, tmp_path):
        proc = _spawn_worker(tmp_path / "empty-store", "--idle-timeout", "0.2")
        assert proc.wait(timeout=60.0) == 0


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

    def test_workers_without_cluster_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers needs"):
            cli.main([
                "sweep", "--scale", "small", "--apps", "tp2d",
                "--workers", "2",
                "--cache-dir", str(tmp_path / "store"),
            ])
        with pytest.raises(SystemExit, match="--workers needs"):
            cli.main([
                "sweep", "--scale", "small", "--apps", "tp2d",
                "--backend", "process", "--workers", "2",
                "--cache-dir", str(tmp_path / "store"),
            ])

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
            "--partitioners", "suite", "--backend", "cluster",
            "--cache-dir", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "placement:" in out
        assert "shared queue" in out
        assert "no alive workers" in out

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
