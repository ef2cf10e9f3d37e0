"""Profiling surfaces over the telemetry event logs.

Three consumers of the raw spans live here:

* :func:`run_scope` — the single integration point the executor wraps
  around every spec execution.  It opens the ``run`` root span, takes
  the metrics-registry counter deltas over the run (so pruning ratios
  are per-run accurate under any backend), and on success writes a
  **run profile** (``<store>/telemetry/runs/<k..>/<key>.json``: wall
  time, counter deltas keyed by registry name, the span subtree) that
  ``repro profile <key>`` renders.
  Because it self-activates an ephemeral recorder when telemetry is on
  but no session is live, profiles appear identically whether the run
  happened in-process, in a pool worker, or in a ``repro worker``
  daemon on another host.
* :func:`aggregate_timings` / :func:`render_timings` — ``repro report
  --timings``: fold every run profile of a store into one table of span
  totals and one counter block across the sweep.
* :func:`cluster_status_doc` / :func:`render_cluster_status` —
  ``repro top`` (and ``repro top --json``): the live worker / lease /
  queue table read straight off the queue directory, enriched with
  per-worker job rates from the metrics file snapshots.
* :func:`evaluate_health` — ``repro health``: machine-checkable
  threshold evaluation (stale heartbeats, stuck leases, queue stall,
  retry spikes, crash dumps) with a nonzero exit for CI/cron.

Everything here writes only under ``<store>/telemetry/`` — never into
``objects/`` — so run profiles cannot perturb a content hash.
"""

from __future__ import annotations

import os
import socket
from contextlib import contextmanager
from pathlib import Path

from .core import (
    TelemetryRecorder,
    activate,
    active_recorder,
    deactivate,
    telemetry_mode,
)
from .metrics import counter_deltas
from .sinks import read_jsonl, write_json_atomic  # noqa: F401  (re-export)

__all__ = [
    "aggregate_timings",
    "cluster_status_doc",
    "evaluate_health",
    "find_run_profiles",
    "load_run_profile",
    "profile_tree",
    "render_cluster_status",
    "render_profile",
    "render_timings",
    "run_profile_path",
    "run_scope",
    "telemetry_root",
]

#: Version stamp of the run-profile document schema.  2: the counter
#: block is ``counters``, keyed by metrics-registry name.
RUN_PROFILE_SCHEMA = 2


def telemetry_root(store_root: str | os.PathLike) -> Path:
    """Where a store's telemetry artifacts live (sibling of objects/)."""
    return Path(store_root) / "telemetry"


def run_profile_path(store_root: str | os.PathLike, key: str) -> Path:
    """The run-profile document of ``key`` (store-style key sharding)."""
    return telemetry_root(store_root) / "runs" / key[:2] / f"{key}.json"


@contextmanager
def run_scope(spec, store):
    """Instrument one spec execution (see module docstring).

    A no-op when telemetry is off and no recorder is active — the check
    is one global read plus one env read, satisfying the <3% overhead
    budget of the acceptance criteria.
    """
    rec = active_recorder()
    ephemeral: TelemetryRecorder | None = None
    if rec is None:
        if telemetry_mode() == "off":
            yield
            return
        # Telemetry requested but no session: a bare execute() — e.g. a
        # process-pool shard worker.  Record just this run and flush it
        # into the shared per-process event log.
        ephemeral = TelemetryRecorder(
            meta={"session": "exec", "pid": os.getpid(),
                  "host": socket.gethostname()}
        )
        ephemeral.bind_jsonl(
            telemetry_root(store.root)
            / f"exec-{socket.gethostname()}-{os.getpid()}.jsonl"
        )
        rec = activate(ephemeral)
    key = spec.key()
    failed = False
    try:
        with counter_deltas() as moved:
            root = rec.span("run", cat="engine", kind=spec.kind,
                            label=spec.label(), key=key[:12])
            with root:
                try:
                    yield
                except BaseException:
                    failed = True
                    raise
    finally:
        if not failed:
            events = rec.subtree(root.id)
            root_event = next(
                (e for e in events if e.get("id") == root.id), None
            )
            doc = {
                "schema": RUN_PROFILE_SCHEMA,
                "key": key,
                "kind": spec.kind,
                "label": spec.label(),
                "app": spec.app,
                "scale": spec.scale,
                "wall_s": root_event["dur"] if root_event else 0.0,
                "counters": {name: n for name, n in moved.items() if n},
                "spans": events,
            }
            write_json_atomic(run_profile_path(store.root, key), doc)
        if ephemeral is not None:
            if active_recorder() is ephemeral:
                deactivate()
            ephemeral.flush()
            if telemetry_mode() == "chrome":
                # Sessionless executions (bare `repro run`, pool shards)
                # still get a loadable trace, one file per run.
                from .sinks import write_chrome_trace

                write_chrome_trace(
                    telemetry_root(store.root)
                    / f"exec-{socket.gethostname()}-{os.getpid()}"
                      f"-{key[:12]}.trace.json",
                    ephemeral,
                )


# ---------------------------------------------------------------------------
# run-profile loading
# ---------------------------------------------------------------------------

def find_run_profiles(store_root: str | os.PathLike) -> list[Path]:
    """Every run-profile document under a store, in stable order."""
    runs = telemetry_root(store_root) / "runs"
    if not runs.is_dir():
        return []
    return sorted(runs.glob("*/*.json"))


def load_run_profile(store_root: str | os.PathLike, key_prefix: str) -> dict:
    """Load the unique run profile whose key starts with ``key_prefix``.

    Raises ``FileNotFoundError`` when nothing matches and ``ValueError``
    when the prefix is ambiguous — same contract as store key lookups.
    """
    import json

    matches = [
        path for path in find_run_profiles(store_root)
        if path.stem.startswith(key_prefix)
    ]
    if not matches:
        raise FileNotFoundError(
            f"no run profile matching {key_prefix!r} under "
            f"{telemetry_root(store_root)} — was the run executed with "
            f"telemetry enabled (REPRO_TELEMETRY=json|chrome)?"
        )
    if len(matches) > 1:
        raise ValueError(
            f"key prefix {key_prefix!r} is ambiguous: "
            f"{[p.stem[:12] for p in matches]}"
        )
    return json.loads(matches[0].read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# timing-tree aggregation and rendering
# ---------------------------------------------------------------------------

def profile_tree(events: list[dict]) -> list[dict]:
    """Aggregate span events into a nested name tree.

    Same-named siblings merge (count/total accumulate); each node gets
    ``self`` = total minus its children's totals.  Roots are spans whose
    parent is not in the event list (the stored subtree's top).
    """
    spans = [e for e in events if e.get("type") == "span"]
    ids = {e["id"] for e in spans}
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for e in spans:
        if e["parent"] in ids:
            children.setdefault(e["parent"], []).append(e)
        else:
            roots.append(e)

    def aggregate(level: list[dict]) -> list[dict]:
        groups: dict[str, dict] = {}
        for e in level:
            g = groups.setdefault(
                e["name"], {"name": e["name"], "count": 0, "total": 0.0,
                            "ids": []}
            )
            g["count"] += 1
            g["total"] += e["dur"]
            g["ids"].append(e["id"])
        nodes = []
        for g in groups.values():
            kids = aggregate(
                [c for i in g["ids"] for c in children.get(i, [])]
            )
            child_total = sum(k["total"] for k in kids)
            nodes.append({
                "name": g["name"],
                "count": g["count"],
                "total": g["total"],
                "self": max(0.0, g["total"] - child_total),
                "children": kids,
            })
        nodes.sort(key=lambda n: -n["total"])
        return nodes

    return aggregate(roots)


def _format_tree(nodes: list[dict], indent: int, lines: list[str]) -> None:
    for node in nodes:
        lines.append(
            f"  {'  ' * indent}{node['name']:<{max(4, 38 - 2 * indent)}}"
            f"{node['count']:>6}  {node['total']:>9.3f}s {node['self']:>9.3f}s"
        )
        _format_tree(node["children"], indent + 1, lines)


def _counters_summary(counters: dict) -> list[str]:
    """Human lines for a counter block keyed by registry name."""

    def count(name: str) -> int:
        return int(counters.get(name, 0))

    product = count("repro_pair_pair_product_total")
    examined = count("repro_pair_candidate_pairs_total") + count(
        "repro_pair_bruteforce_pairs_total"
    )
    lines = [
        f"  pair kernels: {count('repro_pair_queries_total')} queries, "
        f"{product:,} brute-force pair product"
    ]
    if examined:
        lines.append(
            f"  candidates examined: {examined:,} "
            f"(x{product / examined:.1f} pruning), "
            f"{count('repro_pair_exact_pairs_total'):,} exact pairs survived"
        )
    builds = count("repro_pair_index_builds_total")
    reuses = count("repro_pair_index_reuses_total")
    deltas = count("repro_pair_delta_updates_total")
    if builds or reuses or deltas:
        served = builds + reuses
        reuse_frac = reuses / served if served else 0.0
        lines.append(
            f"  index reuse: {builds} builds, {deltas} delta updates, "
            f"{reuses} reuses ({reuse_frac:.0%} of queries served warm)"
        )
    hits = count("repro_store_read_cache_hits_total")
    misses = count("repro_store_read_cache_misses_total")
    if hits + misses:
        lines.append(
            f"  store read cache: {hits:,} hits / {misses:,} misses "
            f"({hits / (hits + misses):.0%} hit rate), "
            f"{count('repro_store_read_cache_evictions_total'):,} evictions"
        )
    return lines


def render_profile(doc: dict) -> str:
    """Render one run-profile document as the ``repro profile`` tree."""
    lines = [
        f"run {doc.get('kind', '?')} {doc.get('label', '?')} "
        f"({doc.get('key', '')[:12]})  wall {doc.get('wall_s', 0.0):.3f}s",
        f"  {'span':<38}{'count':>6}  {'total':>10} {'self':>10}",
    ]
    _format_tree(profile_tree(doc.get("spans", [])), 0, lines)
    lines.extend(_counters_summary(doc.get("counters", {})))
    return "\n".join(lines)


def aggregate_timings(store_root: str | os.PathLike) -> dict:
    """Fold every run profile of a store into span totals and counters."""
    import json

    spans: dict[str, dict] = {}
    runs = []
    counters: dict[str, float] = {}
    for path in find_run_profiles(store_root):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        runs.append({
            "key": doc.get("key", path.stem),
            "label": doc.get("label", ""),
            "kind": doc.get("kind", ""),
            "wall_s": doc.get("wall_s", 0.0),
        })
        for event in doc.get("spans", []):
            if event.get("type") != "span":
                continue
            g = spans.setdefault(
                event["name"], {"name": event["name"], "count": 0,
                                "total": 0.0}
            )
            g["count"] += 1
            g["total"] += event["dur"]
        for name, value in (doc.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + value
    return {
        "runs": sorted(runs, key=lambda r: -r["wall_s"]),
        "spans": sorted(spans.values(), key=lambda g: -g["total"]),
        "counters": dict(sorted(counters.items())),
    }


def render_timings(doc: dict) -> str:
    """Render :func:`aggregate_timings` output as the ``--timings`` table."""
    runs = doc["runs"]
    total_wall = sum(r["wall_s"] for r in runs)
    lines = [
        f"{len(runs)} profiled runs, {total_wall:.3f}s total wall",
        f"  {'span':<38}{'count':>8}  {'total':>10}  {'mean':>10}",
    ]
    for g in doc["spans"]:
        mean = g["total"] / g["count"] if g["count"] else 0.0
        lines.append(
            f"  {g['name']:<38}{g['count']:>8}  {g['total']:>9.3f}s "
            f"{mean * 1e3:>8.2f}ms"
        )
    lines.append("  slowest runs:")
    for r in runs[:8]:
        lines.append(
            f"    {r['wall_s']:>8.3f}s  {r['kind']:<10} {r['label']} "
            f"({r['key'][:12]})"
        )
    lines.extend(_counters_summary(doc.get("counters", {})))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# `repro top` / `repro health`: live cluster status
# ---------------------------------------------------------------------------

def _worker_rates(store_root) -> dict[tuple, float]:
    """Per-process jobs/minute from the metrics file snapshots.

    Keyed by ``(host, pid)`` — the same identity the snapshot filenames
    carry — so the status table can join rates onto the worker registry
    without any live connection to the worker.
    """
    from .export import load_metrics_snapshots

    rates: dict[tuple, float] = {}
    for snap in load_metrics_snapshots(store_root):
        elapsed = (snap.get("written_at") or 0.0) - (
            snap.get("started_at") or 0.0
        )
        if elapsed <= 0:
            continue
        jobs = sum(
            float(entry.get("value", 0.0))
            for entry in snap.get("counters", ())
            if entry.get("name") == "repro_worker_jobs_total"
        )
        rates[(snap.get("host"), snap.get("pid"))] = jobs / elapsed * 60.0
    return rates


def cluster_status_doc(store, queue, lease_timeout: float = 30.0,
                       now: float | None = None) -> dict:
    """Machine-readable worker/lease/queue snapshot (``repro top --json``).

    ``store``/``queue`` are duck-typed (`.root`, and the JobQueue read
    API) so this module never imports the engine — the CLI hands in
    live objects.  All ages are clamped at zero: on a shared-filesystem
    cluster the heartbeat stamps come from *other hosts' clocks*, and
    skew must render as "just now", not a negative age.
    """
    import time as _time

    from .flight import find_crash_dumps

    now = _time.time() if now is None else now
    workers = queue.workers()
    alive = {
        w["worker_id"]
        for w in queue.alive_workers(max(lease_timeout, 10.0), now=now)
    }
    tickets = queue.tickets()
    leases = queue.leases()
    failures = queue.failures()
    leased_keys = {lease.get("key") for lease in leases}
    waiting = [t for t in tickets if t.get("key") not in leased_keys]
    rates = _worker_rates(store.root)

    worker_rows = []
    for w in sorted(workers, key=lambda w: w["worker_id"]):
        beat_age = max(0.0, now - (w.get("heartbeat_at") or 0.0))
        worker_rows.append({
            "worker_id": w["worker_id"],
            "host": w.get("host", "?"),
            "pid": w.get("pid", 0),
            "jobs_done": w.get("jobs_done", 0),
            "beat_age_s": beat_age,
            "state": "alive" if w["worker_id"] in alive else "stale",
            "jobs_per_min": rates.get((w.get("host"), w.get("pid"))),
        })
    lease_rows = [
        {
            "key": lease.get("key"),
            "owner": lease.get("owner"),
            "attempt": lease.get("attempt", 0),
            "age_s": max(0.0, now - (lease.get("claimed_at") or now)),
            "beat_age_s": max(
                0.0, now - (lease.get("heartbeat_at") or now)
            ),
        }
        for lease in leases
    ]
    waiting_rows = [
        {
            "key": t.get("key"),
            "label": t.get("label", ""),
            "attempt": t.get("attempt", 0),
            "max_attempts": t.get("max_attempts", 0),
        }
        for t in waiting
    ]
    failure_rows = [
        {
            "key": f.get("key"),
            "attempt": f.get("attempt", 0),
            "owner": f.get("owner"),
            "error": f.get("error"),
        }
        for f in failures
    ]
    return {
        "now": now,
        "store": str(store.root),
        "queue": str(queue.root),
        "tickets_open": len(tickets),
        "workers": worker_rows,
        "workers_alive": len(alive),
        "leases": lease_rows,
        "waiting": waiting_rows,
        "failures": failure_rows,
        "crash_dumps": len(find_crash_dumps(store.root)),
    }


def render_cluster_status(store, queue, lease_timeout: float = 30.0,
                          now: float | None = None) -> str:
    """One snapshot of the worker/lease/queue state as a status table."""
    doc = cluster_status_doc(store, queue, lease_timeout=lease_timeout,
                             now=now)
    lines = [
        f"store {doc['store']}",
        f"queue {doc['queue']}: {doc['tickets_open']} open tickets "
        f"({len(doc['leases'])} leased, {len(doc['waiting'])} waiting), "
        f"{len(doc['failures'])} failure records",
        f"workers ({doc['workers_alive']} alive / "
        f"{len(doc['workers'])} registered):",
    ]
    if doc["workers"]:
        lines.append(
            f"  {'worker':<34}{'host':<12}{'pid':>7}{'jobs':>6}"
            f"{'j/min':>8}{'beat age':>10}  state"
        )
        for w in doc["workers"]:
            rate = w["jobs_per_min"]
            rate_txt = f"{rate:>7.1f} " if rate is not None else f"{'-':>7} "
            lines.append(
                f"  {w['worker_id']:<34}{w['host']:<12}"
                f"{w['pid']:>7}{w['jobs_done']:>6}{rate_txt}"
                f"{w['beat_age_s']:>9.1f}s  {w['state']}"
            )
    else:
        lines.append("  (none registered)")
    if doc["leases"]:
        lines.append("leases:")
        lines.append(
            f"  {'key':<14}{'owner':<34}{'attempt':>8}{'age':>9}"
            f"{'beat age':>10}"
        )
        for lease in doc["leases"]:
            lines.append(
                f"  {str(lease['key'] or '')[:12]:<14}"
                f"{str(lease['owner']):<34}"
                f"{lease['attempt']:>8}{lease['age_s']:>8.1f}s"
                f"{lease['beat_age_s']:>9.1f}s"
            )
    if doc["waiting"]:
        lines.append("waiting tickets:")
        for t in doc["waiting"][:20]:
            lines.append(
                f"  {str(t['key'] or '')[:12]:<14}"
                f"{t['label']:<40}"
                f"attempt {t['attempt']}/{t['max_attempts']}"
            )
        if len(doc["waiting"]) > 20:
            lines.append(f"  ... and {len(doc['waiting']) - 20} more")
    if doc["failures"]:
        lines.append(f"failures ({len(doc['failures'])} records):")
        for f in doc["failures"][-5:]:
            lines.append(
                f"  {str(f['key'] or '')[:12]} attempt "
                f"{f['attempt']} by {f['owner']}"
            )
    if doc["crash_dumps"]:
        lines.append(
            f"crash dumps: {doc['crash_dumps']} under telemetry/crash/ "
            f"(inspect with `repro blackbox`)"
        )
    return "\n".join(lines)


def evaluate_health(store, queue, *, lease_timeout: float = 30.0,
                    max_failures: int = 3,
                    now: float | None = None) -> dict:
    """Threshold checks over the cluster state (``repro health``).

    Each check contributes ``{"name", "ok", "detail"}``; overall
    ``status`` is ``"ok"`` only when every check passes, so the CLI can
    exit nonzero for CI/cron.  Checks:

    * ``stale_workers`` — registered workers whose heartbeat exceeds the
      lease timeout (likely dead, leases pending expiry);
    * ``stale_leases`` — leases whose job heartbeat went quiet (the
      holder died mid-job; a broker will requeue on expiry);
    * ``queue_stall`` — waiting tickets with zero alive workers (nobody
      will ever drain the queue);
    * ``retry_spikes`` — ``failed/`` records at or above
      ``max_failures`` (systematic job failure, not a one-off);
    * ``crash_dumps`` — flight-recorder dumps present (a worker died
      unhandled; clear ``telemetry/crash/`` after triage).
    """
    doc = cluster_status_doc(store, queue, lease_timeout=lease_timeout,
                             now=now)
    checks = []

    stale = [w for w in doc["workers"] if w["state"] == "stale"]
    checks.append({
        "name": "stale_workers",
        "ok": not stale,
        "detail": (
            f"{len(stale)} of {len(doc['workers'])} registered workers "
            f"have stale heartbeats"
            + (f": {', '.join(w['worker_id'] for w in stale[:4])}"
               if stale else "")
        ),
    })
    quiet = [
        lease for lease in doc["leases"]
        if lease["beat_age_s"] > lease_timeout
    ]
    checks.append({
        "name": "stale_leases",
        "ok": not quiet,
        "detail": (
            f"{len(quiet)} of {len(doc['leases'])} leases exceed the "
            f"{lease_timeout:.0f}s heartbeat timeout"
            + (f": {', '.join(str(q['key'] or '')[:12] for q in quiet[:4])}"
               if quiet else "")
        ),
    })
    stalled = bool(doc["waiting"]) and doc["workers_alive"] == 0
    checks.append({
        "name": "queue_stall",
        "ok": not stalled,
        "detail": (
            f"{len(doc['waiting'])} waiting tickets, "
            f"{doc['workers_alive']} alive workers"
        ),
    })
    checks.append({
        "name": "retry_spikes",
        "ok": len(doc["failures"]) < max_failures,
        "detail": (
            f"{len(doc['failures'])} failure records "
            f"(threshold {max_failures})"
        ),
    })
    checks.append({
        "name": "crash_dumps",
        "ok": doc["crash_dumps"] == 0,
        "detail": f"{doc['crash_dumps']} crash dumps under telemetry/crash/",
    })
    return {
        "status": "ok" if all(c["ok"] for c in checks) else "unhealthy",
        "now": doc["now"],
        "store": doc["store"],
        "queue": doc["queue"],
        "checks": checks,
    }
