"""Always-on aggregated metrics: counters, gauges, log-scale histograms.

PR 7's span tracing is an *event log*: rich, but off by default and
unbounded at service timescales.  This module is the complementary
*metrics plane* every long-lived service is actually run on — a
process-local, thread-safe registry of *aggregates* that is always on:

* **counters** — monotonic tallies (runs completed, store publishes);
* **gauges** — instantaneous levels (current plan layer, uptime);
* **histograms** — fixed-bucket log-scale distributions (run latency).

Cost model: one dict update under one lock per sample, no per-event
allocation beyond the first observation of a series, and **no event
log** — a counter incremented a billion times occupies one float.  That
is what makes it safe to leave on unconditionally, unlike the span
layer.

The registry is the only place a count lives.  Instrumentation pushes
into it at the seams (run outcomes, DAG layer progress, store
publishes and reads); the pair kernels, which fire ~10^5 events per
sweep, charge their tallies through a pre-keyed
:meth:`MetricsRegistry.counter_group`.  Scoping — "how much of this
happened inside that run / that kernel phase" — is a delta of two
snapshots (:func:`counter_deltas`), never a second store.  The one
pull-time *collector* left reads process vitals no counter holds.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts;
:mod:`repro.telemetry.export` renders them as Prometheus text or JSON,
serves them over HTTP, and writes atomic file snapshots under
``<store>/telemetry/metrics/``.  Like every telemetry surface, metrics
never touch a content hash: nothing here flows into a spec payload or a
store artifact.

Metric and label names are validated against the Prometheus data model
on first use, so the text exposition is valid by construction.
"""

from __future__ import annotations

import logging
import math
import os
import re
import socket
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable

__all__ = [
    "BUILTIN_COUNTERS",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "PAIR_COUNTER_FIELDS",
    "READ_CACHE_FIELDS",
    "counter_deltas",
    "metric_inc",
    "metric_gauge",
    "metric_observe",
    "metrics_registry",
    "reset_metrics",
]

logger = logging.getLogger("repro.telemetry.metrics")

#: Version stamp of the snapshot document schema.
METRICS_SCHEMA = 1

#: Default histogram bounds: log-scale (powers of two) from 1 ms to
#: ~65 s — covering everything from a store cache hit to an ultra-scale
#: metric step.  Observations above the last bound land in the implicit
#: ``+Inf`` bucket, so the tail is never lost, only coarsened.
DEFAULT_BUCKETS = tuple(0.001 * 2.0**i for i in range(17))

#: Pair-kernel tallies, exported as ``repro_pair_<field>_total``.
#: ``pair_product`` is what a pure brute-force run would examine,
#: ``candidate_pairs`` what the index emitted to the exact arithmetic,
#: ``exact_pairs`` what survived it.
PAIR_COUNTER_FIELDS = (
    "queries",
    "grid_queries",
    "sweep_queries",
    "brute_queries",
    "pair_product",
    "bruteforce_pairs",
    "candidate_pairs",
    "exact_pairs",
    "index_builds",
    "index_reuses",
    "delta_updates",
)

#: Store read-cache tallies, exported as
#: ``repro_store_read_cache_<field>_total``.
READ_CACHE_FIELDS = ("hits", "misses", "evictions")

#: Counters the global registry exports from the moment it exists, at 0
#: until first incremented: perfbench and Prometheus read them by name.
BUILTIN_COUNTERS = tuple(
    f"repro_pair_{field}_total" for field in PAIR_COUNTER_FIELDS
) + tuple(f"repro_store_read_cache_{field}_total" for field in READ_CACHE_FIELDS)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A series key: the metric name plus its sorted ``(label, value)`` pairs.
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


#: Label-less series keys, validated once and reused by every later
#: sample of the same name.
_PLAIN_KEYS: dict[str, SeriesKey] = {}


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        )


def _series_key(name: str, labels: dict) -> SeriesKey:
    if not labels:
        key = _PLAIN_KEYS.get(name)
        if key is None:
            _check_name(name)
            key = _PLAIN_KEYS[name] = (name, ())
        return key
    _check_name(name)
    pairs = []
    for label, value in sorted(labels.items()):
        if not _LABEL_RE.match(label):
            raise ValueError(
                f"invalid label name {label!r} on metric {name!r}"
            )
        pairs.append((label, str(value)))
    return (name, tuple(pairs))


class MetricsRegistry:
    """Thread-safe process-local metric aggregation.

    ``clock`` is any zero-argument callable returning wall-clock seconds
    (defaults to :func:`time.time`); snapshots stamp it so consumers can
    compute rates between two snapshots of the same process.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.time
        self._lock = threading.Lock()
        self._counters: dict[SeriesKey, float] = {}
        self._gauges: dict[SeriesKey, float] = {}
        # histogram series: key -> [bucket counts (len(bounds)+1), sum, n]
        self._hists: dict[SeriesKey, list] = {}
        self._hist_bounds: dict[str, tuple[float, ...]] = {}
        self._collectors: dict[str, Callable[["MetricsRegistry"], None]] = {}
        self._declared: tuple[SeriesKey, ...] = ()
        self.started_at = self._clock()

    # -- write paths --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series (monotonic tally)."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def declare(self, *names: str) -> None:
        """Export label-less counters at 0 before their first increment.

        Declared series survive :meth:`reset` (at 0), so scrapers and
        benchmarks can read them by name at any time.
        """
        keys = tuple(_series_key(name, {}) for name in names)
        with self._lock:
            for key in keys:
                self._counters.setdefault(key, 0.0)
            self._declared += keys

    def counter_group(
        self, template: str, fields: Iterable[str]
    ) -> Callable[..., None]:
        """A hot-path incrementer for the counters ``template.format(f)``.

        The counters are declared (exported at 0) and keyed once, here;
        the returned ``add(field=n, ...)`` charges all its deltas under
        one lock.  The pair kernels call it ~10^5 times per sweep, where
        an :meth:`inc` per field costs over twice as much.
        """
        names = {field: template.format(field) for field in fields}
        self.declare(*names.values())
        keys = {field: _PLAIN_KEYS[name] for field, name in names.items()}
        acquire, release = self._lock.acquire, self._lock.release
        counters = self._counters

        def add(**deltas: float) -> None:
            acquire()
            try:
                for field, n in deltas.items():
                    counters[keys[field]] += n
            finally:
                release()

        return add

    def set(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to an instantaneous level."""
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] | None = None,
        **labels,
    ) -> None:
        """Record one observation into a fixed-bucket histogram.

        The bucket bounds of a histogram name are pinned by its first
        observation (``buckets`` or :data:`DEFAULT_BUCKETS`); later
        calls may omit them.  Bounds must be strictly increasing.
        """
        key = _series_key(name, labels)
        value = float(value)
        with self._lock:
            bounds = self._hist_bounds.get(name)
            if bounds is None:
                bounds = tuple(
                    float(b) for b in (buckets or DEFAULT_BUCKETS)
                )
                if not bounds or any(
                    b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
                ):
                    raise ValueError(
                        f"histogram bounds of {name!r} must be strictly "
                        f"increasing and non-empty, got {bounds}"
                    )
                self._hist_bounds[name] = bounds
            state = self._hists.get(key)
            if state is None:
                state = self._hists[key] = [[0] * (len(bounds) + 1), 0.0, 0]
            counts, _, _ = state
            # First bound >= value; the +Inf bucket is the last slot.
            lo, hi = 0, len(bounds)
            while lo < hi:
                mid = (lo + hi) // 2
                if value <= bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            counts[lo] += 1
            state[1] += value
            state[2] += 1

    # -- collectors ---------------------------------------------------------

    def add_collector(
        self, name: str, fn: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a pull-time exporter run by every :meth:`snapshot`.

        A collector receives the registry and sets gauges from state no
        counter holds (process vitals).  A raising collector is skipped
        (logged at debug), never fatal — the metrics plane must not take
        the run down with it.
        """
        self._collectors[name] = fn

    # -- read path ----------------------------------------------------------

    def snapshot(self, run_collectors: bool = True) -> dict:
        """One JSON-able snapshot of every series (stable ordering)."""
        if run_collectors:
            for name, fn in list(self._collectors.items()):
                try:
                    fn(self)
                except Exception:
                    logger.debug("collector %s failed", name, exc_info=True)
        with self._lock:
            counters = [
                {"name": name, "labels": dict(pairs), "value": value}
                for (name, pairs), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(pairs), "value": value}
                for (name, pairs), value in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(pairs),
                    "bounds": list(self._hist_bounds[name]),
                    "counts": list(counts),
                    "sum": total,
                    "count": n,
                }
                for (name, pairs), (counts, total, n) in sorted(
                    self._hists.items()
                )
            ]
        return {
            "schema": METRICS_SCHEMA,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "started_at": self.started_at,
            "written_at": self._clock(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter series (0.0 when unseen)."""
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def counter_totals(self) -> dict[str, float]:
        """Every counter's value by name, summed over its label sets."""
        totals: dict[str, float] = {}
        with self._lock:
            for (name, _), value in self._counters.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def reset(self) -> None:
        """Zero every series (test isolation).

        Collectors are kept, and declared counters stay exported at 0.
        """
        with self._lock:
            self._counters.clear()
            self._counters.update(dict.fromkeys(self._declared, 0.0))
            self._gauges.clear()
            self._hists.clear()
            self._hist_bounds.clear()
        self.started_at = self._clock()


@contextmanager
def counter_deltas(registry: MetricsRegistry | None = None):
    """Yield a dict that, on exit, maps each counter name to its growth.

    The one scoping mechanism: a run profile, a kernel-phase span and a
    benchmark case each take the delta of two registry snapshots around
    their block.  Every counter the registry holds gets an entry (0 when
    it did not move), summed over labels.  The deltas are exact because
    every backend runs one spec per process at a time.
    """
    registry = metrics_registry() if registry is None else registry
    before = registry.counter_totals()
    deltas: dict[str, float] = {}
    try:
        yield deltas
    finally:
        for name, value in registry.counter_totals().items():
            deltas[name] = value - before.get(name, 0.0)


def _collect_process(registry: MetricsRegistry) -> None:
    """Process-level vitals cheap enough to pull every snapshot."""
    registry.set(
        "repro_process_uptime_seconds",
        max(0.0, registry._clock() - registry.started_at),
    )
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; normalize to bytes.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        registry.set("repro_process_max_rss_bytes", usage.ru_maxrss * scale)
    except (ImportError, AttributeError, OSError):  # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# the process-global registry and its always-on front door
# ---------------------------------------------------------------------------

_GLOBAL: MetricsRegistry | None = None
_GLOBAL_LOCK = threading.Lock()


def metrics_registry() -> MetricsRegistry:
    """The process-global registry (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                registry = MetricsRegistry()
                registry.declare(*BUILTIN_COUNTERS)
                registry.add_collector("process", _collect_process)
                _GLOBAL = registry
    return _GLOBAL


def reset_metrics() -> None:
    """Zero the global registry's series (test isolation)."""
    metrics_registry().reset()


def metric_inc(name: str, value: float = 1.0, **labels) -> None:
    """Increment a counter on the global registry (always on)."""
    metrics_registry().inc(name, value, **labels)


def metric_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the global registry (always on)."""
    metrics_registry().set(name, value, **labels)


def metric_observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation on the global registry."""
    metrics_registry().observe(name, value, **labels)


def _fmt_value(value: float) -> str:
    """Prometheus-friendly number formatting (ints stay integral)."""
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
