"""Run profiles: the one span artifact, and its renderers.

Two consumers of the raw spans live here:

* :func:`run_scope` — the single integration point the executor wraps
  around every spec execution (computation and publish).  With
  telemetry on it activates a fresh recorder for exactly the run's
  extent and opens the ``run`` root span; in every mode it takes the
  metrics-registry counter deltas over the run (so pruning ratios are
  per-run accurate in this process and in pool workers alike).  A
  completed run leaves a **run profile**
  (``<store>/telemetry/runs/<k..>/<key>.json``: outcome, wall time,
  counter deltas keyed by registry name, every span of the run) that
  ``repro profile <key>`` renders; ``chrome`` mode also leaves the
  run's Chrome trace (``<store>/telemetry/traces/<key>.trace.json``).
  A run that raises leaves its profile always — the **failure record**,
  which adds the spec, the error and its traceback — and a later
  success of the same key replaces or deletes it.  The profile is the
  same whether the run happened in this process or in a pool worker.
* :func:`aggregate_timings` / :func:`render_timings` — ``repro report
  --timings``: fold every run profile of a store into one table of span
  totals and one counter block across the sweep.

Everything here writes only under ``<store>/telemetry/`` — never into
``objects/`` — so run profiles cannot perturb a content hash.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from .core import TelemetryRecorder, activate, deactivate, telemetry_mode
from .metrics import counter_deltas
from .sinks import write_chrome_trace, write_json_atomic

__all__ = [
    "aggregate_timings",
    "failure_records",
    "find_run_profiles",
    "load_run_profile",
    "profile_tree",
    "render_profile",
    "render_timings",
    "run_profile_path",
    "run_scope",
    "telemetry_root",
]

#: Version stamp of the run-profile document schema.  2: the counter
#: block is ``counters``, keyed by metrics-registry name.  The
#: ``outcome`` / ``spec`` / ``error`` / ``traceback`` fields of a
#: failure record are additive; a profile without ``outcome`` counts as
#: completed.
RUN_PROFILE_SCHEMA = 2

#: Traceback lines ``repro profile`` prints under a failure.
_TRACEBACK_TAIL = 6


def telemetry_root(store_root: str | os.PathLike) -> Path:
    """Where a store's telemetry artifacts live (sibling of objects/)."""
    return Path(store_root) / "telemetry"


def run_profile_path(store_root: str | os.PathLike, key: str) -> Path:
    """The run-profile document of ``key`` (store-style key sharding)."""
    return telemetry_root(store_root) / "runs" / key[:2] / f"{key}.json"


@contextmanager
def run_scope(spec, store):
    """Instrument one spec execution (see module docstring).

    With telemetry off, a completed run costs one registry delta and
    one stat (is there a failure record to retire?); only a failure
    writes anything.  With it on, runs do not nest: the recorder is
    process-global, so :func:`activate` refuses a second one.
    """
    mode = telemetry_mode()
    rec = None if mode == "off" else activate(TelemetryRecorder())
    key = spec.key()
    path = run_profile_path(store.root, key)
    started = time.perf_counter()

    def record(outcome: str, moved: dict, **extra) -> None:
        events = [] if rec is None else rec.events
        write_json_atomic(path, {
            "schema": RUN_PROFILE_SCHEMA,
            "outcome": outcome,
            "key": key,
            "kind": spec.kind,
            "label": spec.label(),
            "app": spec.app,
            "scale": spec.scale,
            # The root span closes last: its duration is the run's.
            "wall_s": (events[-1]["dur"] if events
                       else time.perf_counter() - started),
            "counters": {name: n for name, n in moved.items() if n},
            "spans": events,
            **extra,
        })
        if mode == "chrome":
            write_chrome_trace(
                telemetry_root(store.root) / "traces" / f"{key}.trace.json",
                events,
                meta={"key": key, "kind": spec.kind, "label": spec.label()},
            )

    try:
        with counter_deltas() as moved:
            if rec is None:
                yield
            else:
                with rec.span("run", cat="engine", kind=spec.kind,
                              label=spec.label(), key=key[:12]):
                    yield
    except Exception as exc:
        try:
            record(
                "failed", moved, spec=spec.to_json(),
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
        except OSError:
            pass  # a full or read-only store must not mask the run's error
        raise
    else:
        if rec is not None:
            record("completed", moved)
        elif path.is_file() and _load(path).get("outcome") == "failed":
            path.unlink(missing_ok=True)
    finally:
        if rec is not None:
            deactivate()


def _load(path: Path) -> dict:
    """One run-profile document; ``{}`` when it is unreadable."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


# ---------------------------------------------------------------------------
# run-profile loading
# ---------------------------------------------------------------------------

def find_run_profiles(store_root: str | os.PathLike) -> list[Path]:
    """Every run-profile document under a store, in stable order."""
    runs = telemetry_root(store_root) / "runs"
    if not runs.is_dir():
        return []
    return sorted(runs.glob("*/*.json"))


def failure_records(
    store_root: str | os.PathLike, skip: Callable[[str], bool]
) -> list[dict]:
    """Every failure record under a store whose key ``skip`` rejects.

    ``skip`` is consulted before a document is read, so a listing that
    passes ``store.has`` only parses the profiles of unstored keys.
    """
    docs = [
        _load(path) for path in find_run_profiles(store_root)
        if not skip(path.stem)
    ]
    return [doc for doc in docs if doc.get("outcome") == "failed"]


def load_run_profile(store_root: str | os.PathLike, key_prefix: str) -> dict:
    """Load the unique run profile whose key starts with ``key_prefix``.

    Raises ``FileNotFoundError`` when nothing matches and ``ValueError``
    when the prefix is ambiguous — same contract as store key lookups.
    """
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
    """Render one run-profile document as the ``repro profile`` tree.

    A failure record leads with its error and the last lines of its
    traceback.
    """
    lines = [
        f"run {doc.get('kind', '?')} {doc.get('label', '?')} "
        f"({doc.get('key', '')[:12]})  wall {doc.get('wall_s', 0.0):.3f}s",
    ]
    if doc.get("outcome") == "failed":
        lines.append(f"  FAILED: {doc.get('error', '?')}")
        tail = (doc.get("traceback") or "").rstrip().splitlines()
        lines.extend(f"    {line}" for line in tail[-_TRACEBACK_TAIL:])
    lines.append(f"  {'span':<38}{'count':>6}  {'total':>10} {'self':>10}")
    _format_tree(profile_tree(doc.get("spans", [])), 0, lines)
    lines.extend(_counters_summary(doc.get("counters", {})))
    return "\n".join(lines)


def aggregate_timings(store_root: str | os.PathLike) -> dict:
    """Fold every run profile of a store into span totals and counters."""
    spans: dict[str, dict] = {}
    runs = []
    counters: dict[str, float] = {}
    for path in find_run_profiles(store_root):
        doc = _load(path)
        if not doc:
            continue
        runs.append({
            "key": doc.get("key", path.stem),
            "label": doc.get("label", ""),
            "kind": doc.get("kind", ""),
            "outcome": doc.get("outcome", "completed"),
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
    failed = sum(1 for r in runs if r.get("outcome") == "failed")
    lines = [
        f"{len(runs)} profiled runs ({failed} failed), "
        f"{total_wall:.3f}s total wall",
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
