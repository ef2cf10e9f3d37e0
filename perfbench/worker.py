"""One measured process of the repro benchmark.

``run.py`` starts this script with one JSON job as its only argument and
reads one JSON document from the last line of its standard output.  The
job's ``mode`` is one of:

* ``prepare`` -- generate the workload's inputs for one seed into the
  shared input store; never timed;
* ``setup`` -- import the program and build a fresh run store holding the
  workload's inputs, then stop: one ``setup_s`` sample;
* ``measure`` -- set up, run the timed phase, then check every output;
* ``trace`` -- set up, run one untraced and one traced pass, check their
  outputs and report the traced pass's per-layer rows.

``run.py`` sets the environment: no ``REPRO_*`` switch but
``REPRO_CACHE_DIR``, this run's own store, and ``PERFBENCH_SPAWNED``,
the monotonic clock read just before this process was started.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import repro.engine
import repro.experiments  # registers the workload scales

import checks
import suites
import tracer

#: Host probes right after set-up, and before and after the timed phase.
PROBES_AROUND = 10
#: Host probes after each operation of the timed phase.
PROBES_BETWEEN = 2
#: What each probe takes on a quiet 2-vCPU reference host.  A probe
#: median k times that says the host ran k times slower than nominal.
HOST_PROBE_NOMINAL_S = 0.018
START_PROBE_NOMINAL_S = 0.23


def fresh_store(root: Path, inputs, workload: str, seed: int):
    """A new result store at ``root`` holding the workload's inputs."""
    store = repro.engine.ResultStore(root)
    for spec in suites.input_specs(workload, seed):
        key = spec.key()
        shutil.copytree(inputs.entry_dir(key), store.entry_dir(key))
    return store


def release_caches() -> None:
    """Drop the in-process memos a finished pass filled.

    The next pass works on a new store, which misses them anyway; this
    only keeps their memory from piling up across passes.
    """
    from repro.experiments.workloads import clear_trace_cache

    clear_trace_cache(memory_only=True)
    repro.engine.clear_read_cache()


def snapshots(spec) -> int:
    """Snapshots of the trace a spec generates or replays."""
    from repro.experiments.workloads import paper_config, workload_ndim

    config = paper_config(spec.scale, workload_ndim(spec.app))
    return config.nsteps // config.regrid_interval + 1


def tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class HostProbe:
    """A fixed mix of interpreter and numpy work that does not touch the
    program; its time says how fast the host runs at this moment.

    The buffers are allocated once, so the probe's time does not depend
    on how much memory the process around it holds.
    """

    def __init__(self, size: int = 1 << 19) -> None:
        self.source = (np.arange(size) * 7919 % size).astype(float)
        self.data = np.empty_like(self.source)

    def __call__(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(120000):
            total += i % 7
        np.copyto(self.data, self.source)
        for _ in range(4):
            self.data += 1.0
            np.sqrt(self.data, out=self.data)
        self.data.sort()
        return time.perf_counter() - started


host_probe = HostProbe()


def start_probe() -> float:
    """Seconds to start a fresh interpreter that imports numpy.

    The report commands spend most of their time starting and importing,
    work the in-process probe does not see: in one run every command
    took 1.04 s against 0.70 s in another while that probe read the
    same.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - started


def spec_pass(specs, store, probes=None) -> tuple[list[dict], float]:
    """Each spec on the serial backend: raw records and the pass time.

    With ``probes`` set, a host probe runs after each operation, outside
    its timing, and its time is appended there.
    """
    records = []
    for spec in specs:
        error = None
        started = time.perf_counter()
        try:
            repro.engine.run_specs([spec], store=store, backend="serial")
        except Exception as exc:  # one failed operation; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        records.append({
            "spec": spec, "seconds": time.perf_counter() - started, "error": error,
        })
        if probes is not None:
            probes += [host_probe() for _ in range(PROBES_BETWEEN)]
    return records, sum(r["seconds"] for r in records)


def check_spec(spec, store) -> tuple[str, int, bool]:
    """``(digest, work units, structural ok)`` of one stored output."""
    if spec.kind == "trace":
        trace = store.get_trace(spec)
        artifact = store.entry_dir(spec.key()) / "trace.json.gz"
        digest = checks.bytes_digest(gzip.decompress(artifact.read_bytes()))
        ok = len(trace) == snapshots(spec) and all(
            step.hierarchy.ncells > 0 for step in trace
        )
        return digest, len(trace), ok
    arrays = store.get_result(spec).arrays
    units = len(arrays["step"]) if spec.kind == "sim" else 0
    return (
        checks.arrays_digest(arrays),
        units,
        checks.series_ok(arrays, snapshots(spec)),
    )


def checked_specs(records, store, pinned) -> list[dict]:
    for record in records:
        spec = record.pop("spec")
        digest, units, structural = None, 0, False
        if record["error"] is None:
            try:
                digest, units, structural = check_spec(spec, store)
            except Exception as exc:  # an unreadable output fails its check
                record["error"] = f"{type(exc).__name__}: {exc}"
        record.update(
            label=spec.label(), key=spec.key(), units=units, digest=digest,
            structural=structural,
            ok=checks.verify(spec.key(), digest, pinned, structural),
        )
    return records


def report_record(stdout: bytes, code: int, seconds: float, pinned,
                  error: str | None = None) -> dict:
    digest = checks.bytes_digest(stdout)
    structural = code == 0 and bool(stdout.strip())
    return {
        "label": "python -m repro " + " ".join(suites.REPORT_ARGS),
        "key": "report", "seconds": seconds, "units": 1, "digest": digest,
        "structural": structural, "error": error,
        "ok": checks.verify("report", digest, pinned, structural),
    }


def report_in_process(store, pinned) -> tuple[list[dict], float]:
    """One report command run in this process, against ``store``."""
    from repro.engine.cli import main as cli_main

    os.environ["REPRO_CACHE_DIR"] = str(store.root)
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(suites.REPORT_ARGS))
    seconds = time.perf_counter() - started
    return [report_record(out.getvalue().encode(), code, seconds, pinned)], seconds


def run_watched(command, workdir: Path, timeout: float):
    """Run ``command``; return its exit code, output, error output, wall
    time and own peak resident set in KiB.

    The peak is the child's ``VmHWM``, read from ``/proc`` while it runs.
    The rusage of a child would count this process's image too, which
    the child carries until it executes the command.
    """
    peak_kb = 0
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        status = Path(f"/proc/{proc.pid}/status")
        while True:
            try:
                for line in status.read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
            except OSError:  # exited between the poll and the read
                pass
            try:
                proc.wait(timeout=0.005)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - started > timeout:
                    proc.kill()
                    proc.wait()
                    raise
        seconds = time.perf_counter() - started
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), seconds, peak_kb


def keep_going(elapsed: float, last: float, seconds: float) -> bool:
    """Start another pass only while it ends nearer to ``seconds``."""
    return elapsed + last / 2 < seconds


def measure(job, store, inputs, pinned) -> dict:
    """The timed phase, with probes of the host's speed before, between
    and after the operations (never inside one).

    ``slowdown`` is the probes' median over their nominal time; the
    report commands are probed by interpreter starts, the rest by the
    in-process probe.
    """
    workload, seed, seconds = job["workload"], job["seed"], job["seconds"]
    ops: list[dict] = []
    if workload == "report-cli":
        probe, nominal, around = start_probe, START_PROBE_NOMINAL_S, 3
    else:
        probe, nominal, around = host_probe, HOST_PROBE_NOMINAL_S, PROBES_AROUND
    probes = [probe() for _ in range(around)]
    if workload == "report-cli":
        command = [sys.executable, "-m", "repro", *suites.REPORT_ARGS]
        elapsed = last = 0.0
        peak_kb = 0
        while not ops or keep_going(elapsed, last, seconds):
            code, stdout, stderr, last, kb = run_watched(
                command, store.root.parent, timeout=120
            )
            elapsed += last
            peak_kb = max(peak_kb, kb)
            error = stderr.decode(errors="replace")[-400:] if code else None
            ops.append(report_record(stdout, code, last, pinned, error))
            probes.append(probe())
    else:
        specs = suites.specs(workload, seed)
        elapsed = 0.0
        while True:
            records, last = spec_pass(specs, store, probes)
            elapsed += last
            ops += checked_specs(records, store, pinned)
            if not keep_going(elapsed, last, seconds):
                break
            release_caches()
            store = fresh_store(
                store.root.with_name(f"store-{len(ops)}"), inputs, workload, seed
            )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes += [probe() for _ in range(around)]
    return {
        "ops": ops, "peak_rss_kb": peak_kb, "probe_s": statistics.median(probes),
        "slowdown": statistics.median(probes) / nominal,
        "specs": spec_list(workload, seed),
    }


def one_pass(workload, seed, store, pinned):
    """One pass, and the function that checks its raw records."""
    if workload == "report-cli":
        records, seconds = report_in_process(store, pinned)
        return records, seconds, lambda: records
    records, seconds = spec_pass(suites.specs(workload, seed), store)
    return records, seconds, lambda: checked_specs(records, store, pinned)


def trace(job, store, inputs, pinned) -> dict:
    """An untraced pass, then a traced one on a fresh store."""
    import repro.engine.cli  # noqa: F401  -- neither pass pays the import
    import repro.experiments.figures  # noqa: F401
    import repro.experiments.report  # noqa: F401

    workload, seed = job["workload"], job["seed"]
    _, untraced_s, check = one_pass(workload, seed, store, pinned)
    ops = check()
    release_caches()
    store = fresh_store(store.root.with_name("store-traced"), inputs, workload, seed)
    spans = tracer.Tracer()
    before = tracer.registry_counters()
    objects = tree_bytes(store.root / "objects")
    spans.install()
    try:
        _, traced_s, check = one_pass(workload, seed, store, pinned)
    finally:
        spans.uninstall()
    after = tracer.registry_counters()
    written = tree_bytes(store.root / "objects") - objects
    rows = tracer.layer_rows(spans, before, after, written)
    ops += check()
    spans.save(job["spans"])
    return {
        "untraced_s": untraced_s, "traced_s": traced_s, "rows": rows,
        "ops": ops, "nspans": len(spans.spans),
        "specs": spec_list(workload, seed),
    }


def spec_list(workload: str, seed: int) -> list[dict]:
    return [
        {"label": spec.label(), "seed": spec.seed, "key": spec.key()}
        for spec in suites.specs(workload, seed)
    ]


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    workload, seed = job["workload"], job["seed"]
    inputs = repro.engine.ResultStore(job["inputs"])
    if job["mode"] == "prepare":
        specs = suites.input_specs(workload, seed)
        if specs:
            repro.engine.run_specs(specs, store=inputs, backend="serial")
        print(json.dumps({}))
        return
    store = fresh_store(Path(os.environ["REPRO_CACHE_DIR"]), inputs, workload, seed)
    doc = {"setup_s": time.monotonic() - float(os.environ["PERFBENCH_SPAWNED"])}
    doc["setup_slowdown"] = statistics.median(
        host_probe() for _ in range(PROBES_AROUND)
    ) / HOST_PROBE_NOMINAL_S
    if job["mode"] != "setup":
        pinned = checks.load_pinned(workload, seed)
        run = measure if job["mode"] == "measure" else trace
        doc.update(run(job, store, inputs, pinned), versions=versions())
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
