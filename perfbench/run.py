"""Run one workload of the repro benchmark and print its metrics.

    python3 perfbench/run.py --workload suite2d --seed 1 --seconds 10 --trace 0

The first run of a seed generates the workload's inputs into
``.perfbench/inputs`` (never timed, not part of ``setup_s``).  With
``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it runs the workload under timing spans and reports the per-layer rows,
which add up to the traced wall clock.  Each metric is printed by name
with its unit; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import suites
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
INPUTS = WORK / "inputs"

#: End-to-end metrics of ``--trace 0`` and their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
STARTUP_SAMPLES = 5  # fresh interpreters per startup row
MAX_UNATTRIBUTED = 0.10  # share of the traced wall clock


def clean_env(store: Path) -> dict:
    """This process's environment minus every ``REPRO_*`` switch, with
    ``src/`` importable and ``REPRO_CACHE_DIR`` at ``store``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(store)
    return env


def spawn(job: dict, store: Path, timeout: float) -> dict:
    """Run one worker process and return the JSON it printed last."""
    env = clean_env(store)
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {job['mode']} process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def prepare(workload: str, seed: int) -> None:
    """Generate the inputs of one workload and seed, once per checkout."""
    marker = INPUTS / f"ready-{workload}-{checks.seed_slot(workload, seed)}"
    if marker.exists():
        return
    INPUTS.mkdir(parents=True, exist_ok=True)
    job = {"mode": "prepare", "workload": workload, "seed": seed,
           "inputs": str(INPUTS / "store")}
    spawn(job, INPUTS / "store", timeout=850)
    marker.touch()


def measured(args, job: dict, run_dir: Path) -> tuple[dict, list[str]]:
    setups = [
        spawn({**job, "mode": "setup"}, run_dir / f"probe-{i}", 120)
        for i in range(SETUP_SAMPLES - 1)
    ]
    doc = spawn({**job, "mode": "measure", "seconds": args.seconds},
                run_dir / "store", 170)
    setups.append(doc)
    ops = doc["ops"]
    times = [op["seconds"] for op in ops]
    units = sum(op["units"] for op in ops)
    # report-cli's rate comes from its median command, so that one slow
    # process start does not move it.
    if args.workload == "report-cli":
        raw_rate = 1 / statistics.median(times)
    else:
        raw_rate = units / sum(times)
    # A host running the probes k times slower than nominal stretches
    # every time measured in the same moments by about k as well.
    slowdown = doc["slowdown"]
    values = {
        "setup_s": statistics.median(
            s["setup_s"] / s["setup_slowdown"] for s in setups
        ),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        "work_per_s": raw_rate * slowdown,
    }
    rate, what = suites.WORK_UNITS[args.workload]
    lines = [
        f"  host probe   {doc['probe_s']:12.4f} s    {slowdown:.3f}x nominal;"
        " timed metrics below are scaled by it",
        f"  setup_s      {values['setup_s']:12.4f} s    median of {len(setups)}"
        f" set-ups (raw {statistics.median(s['setup_s'] for s in setups):.4f} s)",
        f"  peak_rss_mb  {values['peak_rss_mb']:12.1f} MB",
        f"  work_per_s   {values['work_per_s']:12.4f} 1/s  {rate}: {units} {what}"
        f" in {sum(times):.3f} s (raw {raw_rate:.4f} 1/s)",
    ]
    if args.workload == "report-cli":
        lines.append(f"  report_p50_s {statistics.median(times):12.4f} s"
                     f"    n={len(times)} (raw)")
    metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END.items()}
    return {"metrics": metrics, "ops": ops, "doc": doc}, lines


def startup_rows(workload: str, store: Path) -> tuple[float, float]:
    """Median interpreter start, and median import time on top of it."""
    env = clean_env(store)

    def median_wall(code: str) -> float:
        samples = []
        for _ in range(STARTUP_SAMPLES):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=60)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    interpreter = median_wall("pass")
    return interpreter, median_wall(suites.IMPORTS[workload]) - interpreter


def traced(args, job: dict, run_dir: Path) -> tuple[dict, list[str]]:
    interpreter_s, import_s = startup_rows(args.workload, run_dir / "startup")
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    doc = spawn({**job, "mode": "trace", "spans": str(spans)}, run_dir / "store", 170)
    rows = {"startup.interpreter_s": interpreter_s, "startup.import_s": import_s}
    rows.update(doc["rows"])
    wall = interpreter_s + import_s + doc["traced_s"]
    rows["unattributed_s"] = wall - sum(rows[name] for name in tracer.TIME_ROWS)
    share = rows["unattributed_s"] / wall
    lines = [
        f"  traced wall {wall:.4f} s = startup {interpreter_s + import_s:.4f} s"
        f" + traced pass {doc['traced_s']:.4f} s ({doc['nspans']} spans)",
        f"  tracing overhead {doc['traced_s'] - doc['untraced_s']:+.4f} s"
        f" (untraced pass {doc['untraced_s']:.4f} s)",
    ]
    for name in tracer.TIME_ROWS + ("unattributed_s",):
        lines.append(
            f"  {name:<40} {rows[name]:12.4f} s {100 * rows[name] / wall:6.1f}%"
        )
    total = sum(rows[name] for name in tracer.TIME_ROWS + ("unattributed_s",))
    lines.append(f"  {'total':<40} {total:12.4f} s  100.0%")
    for name in tracer.PER_LAYER:
        if tracer.unit(name) != "s":
            value = rows[name]
            shown = f"{value:.6f}" if tracer.unit(name) == "ratio" else f"{int(value)}"
            lines.append(f"  {name:<40} {shown:>12} {tracer.unit(name)}")
    attributed = share <= MAX_UNATTRIBUTED
    if not attributed:
        lines.append(
            f"  error: unattributed_s is {100 * share:.1f}% of the traced wall"
            f" clock, above {100 * MAX_UNATTRIBUTED:.0f}%"
        )
    metrics = {
        name: {"value": rows[name], "unit": tracer.unit(name)}
        for name in tracer.PER_LAYER
    }
    return {"metrics": metrics, "ops": doc["ops"], "doc": doc,
            "attributed": attributed}, lines


def provenance(seed: int, doc: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:  # no git on this host
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        **doc.get("versions", {}),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "specs": doc.get("specs", []),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suites.WORKLOADS)
    parser.add_argument("--seed", type=int, default=suites.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests as the pinned "
                        "ones for its seed")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    prepare(args.workload, args.seed)
    run_dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    job = {"workload": args.workload, "seed": args.seed,
           "inputs": str(INPUTS / "store")}
    try:
        result, lines = (traced if args.trace else measured)(args, job, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    correct = failed == 0 and result.get("attributed", True)
    prov = provenance(args.seed, result["doc"])
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed")
    for line in lines:
        print(line)
    print(f"  failed_frac  {failed / len(ops):12.4f}      {failed}/{len(ops)}")
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED {op['label']}: {op['error'] or 'output check'}")
    print(f"  commit {prov['commit'] or 'n/a'}  src {prov['source_sha256'][:12]}"
          f"  python {prov.get('python')}  numpy {prov.get('numpy')}"
          f"  scipy {prov.get('scipy')}  nproc {prov['nproc']}")
    if args.pin:
        n = checks.pin(args.workload, args.seed, ops)
        print(f"  pinned {n} digests for seed slot "
              f"{checks.seed_slot(args.workload, args.seed)}")
    summary = {"correct": bool(correct), "attempted": len(ops), "failed": failed,
               "metrics": result["metrics"]}
    record = WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(
        {**summary, "workload": args.workload, "provenance": prov, "ops": ops},
        indent=1,
    ))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
