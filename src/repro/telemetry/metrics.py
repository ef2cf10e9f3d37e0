"""The metrics registry: every count the stack keeps, as a counter.

Spans (:mod:`repro.telemetry.core`) are an *event log*: rich, but off
by default.  This module holds the complementary tallies, which are
always on: a process-local, thread-safe registry of monotonic
**counters**, optionally labeled.

Cost model: one dict update under one lock per increment, no per-event
allocation beyond the first increment of a series, and **no event
log** — a counter incremented a billion times occupies one float.  That
is what makes it safe to leave on unconditionally, unlike the span
layer.

The registry is the only place a count lives.  Instrumentation pushes
into it at the seams (run outcomes, store reads); the pair kernels,
which fire ~10^5 events per sweep, charge their tallies through a
pre-keyed :meth:`MetricsRegistry.counter_group`.  Scoping — "how much
of this happened inside that run / that kernel phase" — is a delta of
two snapshots (:func:`counter_deltas`), never a second store.  Run
profiles, ``repro report --timings``, the benchmarks and
:meth:`MetricsRegistry.snapshot` readers all see the same series.
Nothing here flows into a spec payload or a store artifact, so counts
never touch a content hash.

Metric and label names are validated on first use
(``[a-zA-Z_:][a-zA-Z0-9_:]*`` and ``[a-zA-Z_][a-zA-Z0-9_]*``).
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Callable, Iterable

__all__ = [
    "BUILTIN_COUNTERS",
    "MetricsRegistry",
    "PAIR_COUNTER_FIELDS",
    "READ_CACHE_FIELDS",
    "counter_deltas",
    "metric_inc",
    "metrics_registry",
    "reset_metrics",
]

#: Pair-kernel tallies, counted as ``repro_pair_<field>_total``.
#: ``pair_product`` is what a pure brute-force run would examine.
#: ``brute_queries`` and ``bruteforce_pairs`` count the queries the hit
#: matrix served (one-row operands included) and the pairs it examined,
#: plus ``matched_volume``'s rank-padded broadcasts;
#: ``sweep_queries`` and ``candidate_pairs`` the queries the slab sweep
#: served and the candidates it emitted.  ``exact_pairs`` counts the
#: pairs that survived the kernels' exact arithmetic on either path.
PAIR_COUNTER_FIELDS = (
    "queries",
    "sweep_queries",
    "brute_queries",
    "pair_product",
    "bruteforce_pairs",
    "candidate_pairs",
    "exact_pairs",
)

#: Store read-cache tallies, counted as
#: ``repro_store_read_cache_<field>_total``.
READ_CACHE_FIELDS = ("hits", "misses", "evictions")

#: Counters the global registry holds from the moment it exists, at 0
#: until first incremented: run profiles and perfbench read them by name.
BUILTIN_COUNTERS = tuple(
    f"repro_pair_{field}_total" for field in PAIR_COUNTER_FIELDS
) + tuple(f"repro_store_read_cache_{field}_total" for field in READ_CACHE_FIELDS)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A series key: the metric name plus its sorted ``(label, value)`` pairs.
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


#: Label-less series keys, validated once and reused by every later
#: increment of the same name.
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
    """Thread-safe process-local counter aggregation."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[SeriesKey, float] = {}
        self._declared: tuple[SeriesKey, ...] = ()

    # -- write paths --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series (monotonic tally)."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def declare(self, *names: str) -> None:
        """Hold label-less counters at 0 before their first increment.

        Declared series survive :meth:`reset` (at 0), so readers can
        look them up by name at any time.
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

        The counters are declared (held at 0) and keyed once, here; the
        returned ``add(field=n, ...)`` charges all its deltas under one
        lock.  The pair kernels call it ~10^5 times per sweep, where an
        :meth:`inc` per field costs over twice as much.
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

    # -- read path ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every counter series as a JSON-able dict (stable ordering)."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(pairs), "value": value}
                for (name, pairs), value in sorted(self._counters.items())
            ]
        return {"counters": counters}

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
        """Zero every series (test isolation); declared counters stay
        held at 0."""
        with self._lock:
            self._counters.clear()
            self._counters.update(dict.fromkeys(self._declared, 0.0))


@contextmanager
def counter_deltas(registry: MetricsRegistry | None = None):
    """Yield a dict that, on exit, maps each counter name to its growth.

    The one scoping mechanism: a run profile, a kernel-phase span and a
    benchmark case each take the delta of two registry snapshots around
    their block.  Every counter the registry holds gets an entry (0 when
    it did not move), summed over labels.  The deltas are exact because
    each process, this one or a pool worker, runs one spec at a time.
    """
    registry = metrics_registry() if registry is None else registry
    before = registry.counter_totals()
    deltas: dict[str, float] = {}
    try:
        yield deltas
    finally:
        for name, value in registry.counter_totals().items():
            deltas[name] = value - before.get(name, 0.0)


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
                _GLOBAL = registry
    return _GLOBAL


def reset_metrics() -> None:
    """Zero the global registry's series (test isolation)."""
    metrics_registry().reset()


def metric_inc(name: str, value: float = 1.0, **labels) -> None:
    """Increment a counter on the global registry (always on)."""
    metrics_registry().inc(name, value, **labels)
