"""Timing spans around the public functions of each ``repro`` layer.

The wrappers are installed from the benchmark's side, not from ``src/``:
every target is a module-level function or a class attribute, and every
module-global name a ``repro`` module bound to a target function (``from
..clustering import cluster_flags``) is rebound as well, so each call
site reaches the wrapper.  Spans stay in memory as ``[name, start, end,
parent]`` and are reduced to per-layer self times when the traced pass
ends.  A span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the time the outermost
spans cover; the rest of the traced wall clock is ``unattributed_s``.

Where the program already counts, the counts come from deltas of the
public metrics-registry snapshot, not from the wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: Layer time rows, in table order.  ``run.py`` times the ``startup.*``
#: rows in fresh interpreters; the others are span self times.
TIME_ROWS = (
    "startup.interpreter_s",
    "startup.import_s",
    "apps.advance_s",
    "apps.build_hierarchy_s",
    "clustering.gradient_indicator_s",
    "clustering.buffer_flags_s",
    "clustering.cluster_flags_s",
    "geometry.boxlist_s",
    "partition.hybrid_s",
    "partition.domain_sfc_s",
    "partition.patch_based_s",
    "partition.sticky_s",
    "simulator.measure_step_s",
    "simulator.ghost_face_stats_s",
    "simulator.interlevel_transfer_cells_s",
    "simulator.migration_cells_s",
    "model.sample_trace_s",
    "meta.classify_s",
    "engine.build_plan_s",
    "engine.store.put_result_s",
    "engine.store.get_result_s",
    "engine.store.put_trace_s",
    "engine.store.get_trace_s",
    "experiments.figures_s",
    "experiments.render_s",
)

#: Counts of wrapper calls: metric -> the spans whose calls it counts.
CALL_COUNTS = {
    "apps.advance_calls": ("apps.advance_s",),
    "clustering.cluster_flags_calls": ("clustering.cluster_flags_s",),
    "partition.calls": (
        "partition.hybrid_s",
        "partition.domain_sfc_s",
        "partition.patch_based_s",
        "partition.sticky_s",
    ),
    "simulator.steps": ("simulator.measure_step_s",),
    "meta.classify_calls": ("meta.classify_s",),
}

#: Counts the program keeps itself: metric -> metrics-registry counter.
REGISTRY_COUNTS = {
    "geometry.pair_product": "repro_pair_pair_product_total",
    "geometry.candidate_pairs": "repro_pair_candidate_pairs_total",
    "geometry.exact_pairs": "repro_pair_exact_pairs_total",
    "geometry.index_builds": "repro_pair_index_builds_total",
    "geometry.index_reuses": "repro_pair_index_reuses_total",
    "geometry.delta_updates": "repro_pair_delta_updates_total",
    "geometry.sweep_queries": "repro_pair_sweep_queries_total",
    "engine.store.read_cache_hits": "repro_store_read_cache_hits_total",
    "engine.store.read_cache_misses": "repro_store_read_cache_misses_total",
    "engine.store.mmap_loads": "repro_store_read_cache_mmap_loads_total",
}

RATIOS = ("geometry.candidate_precision", "geometry.pruning_ratio")

#: Every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    TIME_ROWS
    + ("unattributed_s",)
    + tuple(CALL_COUNTS)
    + ("model.samples",)
    + tuple(REGISTRY_COUNTS)
    + RATIOS
    + ("engine.store.bytes_written", "engine.runs_failed")
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in RATIOS:
        return "ratio"
    if metric == "engine.store.bytes_written":
        return "bytes"
    return "count"


def _targets() -> list[tuple[str, object, str, str | None]]:
    """``(span, owner, attribute, item count)`` for each wrapped callable.

    ``owner`` is a module for functions and a class for methods.  The
    item count, when named, adds ``len(result)`` of every call to it.
    """
    from repro.apps import APPLICATIONS, base
    from repro.clustering import berger_rigoutsos, flagging
    from repro.engine import graph
    from repro.engine.store import ResultStore
    from repro.experiments import figures, report
    from repro.geometry.boxlist import BoxList
    from repro.meta import ArmadaClassifier, MetaScheduler
    from repro.model import StateSampler
    from repro.partition import (
        DomainSfcPartitioner,
        NaturePlusFable,
        PatchBasedPartitioner,
        StickyRepartitioner,
    )
    from repro.simulator import TraceSimulator, raster_metrics

    targets = [
        ("apps.advance_s", cls, "advance", None)
        for cls in dict.fromkeys(APPLICATIONS[name] for name in APPLICATIONS)
        if isinstance(cls, type) and "advance" in vars(cls)
    ]
    return targets + [
        ("apps.build_hierarchy_s", base, "build_hierarchy", None),
        ("clustering.gradient_indicator_s", flagging, "gradient_indicator", None),
        ("clustering.buffer_flags_s", flagging, "buffer_flags", None),
        ("clustering.cluster_flags_s", berger_rigoutsos, "cluster_flags", None),
        ("geometry.boxlist_s", BoxList, "disjointified", None),
        ("geometry.boxlist_s", BoxList, "coalesced", None),
        ("partition.hybrid_s", NaturePlusFable, "partition", None),
        ("partition.domain_sfc_s", DomainSfcPartitioner, "partition", None),
        ("partition.patch_based_s", PatchBasedPartitioner, "partition", None),
        ("partition.sticky_s", StickyRepartitioner, "partition", None),
        ("simulator.measure_step_s", TraceSimulator, "measure_step", None),
        ("simulator.ghost_face_stats_s", raster_metrics, "ghost_face_stats", None),
        (
            "simulator.interlevel_transfer_cells_s",
            raster_metrics,
            "interlevel_transfer_cells",
            None,
        ),
        ("simulator.migration_cells_s", raster_metrics, "migration_cells", None),
        ("model.sample_trace_s", StateSampler, "sample_trace", "model.samples"),
        ("meta.classify_s", MetaScheduler, "classify", None),
        ("meta.classify_s", ArmadaClassifier, "classify", None),
        ("engine.build_plan_s", graph, "build_plan", None),
        ("engine.store.put_result_s", ResultStore, "put_result", None),
        ("engine.store.get_result_s", ResultStore, "get_result", None),
        ("engine.store.put_trace_s", ResultStore, "put_trace", None),
        ("engine.store.get_trace_s", ResultStore, "get_trace", None),
        ("experiments.figures_s", figures, "figure1", None),
        ("experiments.figures_s", figures, "figure_app", None),
        ("experiments.render_s", report, "render_figure1", None),
        ("experiments.render_s", report, "render_figure_app", None),
    ]


class Tracer:
    """Spans kept in memory, and the wrappers that record them."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.items: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, items: str | None = None):
        spans, stack, clock, counted = self.spans, self._stack, self.clock, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if items:
                counted[items] += len(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target and every module-global alias of one."""
        targets = _targets()  # imports every layer module first
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for name, owner, attr, items in targets:
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, items)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def save(self, path) -> None:
        """Write the spans out: a names table plus one column per field."""
        import numpy as np

        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans], dtype=np.float64),
            end=np.array([s[2] for s in self.spans], dtype=np.float64),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
        )


def registry_counters() -> dict[str, float]:
    """Counter totals of the metrics registry, summed over labels;
    ``repro_runs_total`` is also kept per outcome."""
    from repro.telemetry import metrics_registry

    totals: dict[str, float] = defaultdict(float)
    for series in metrics_registry().snapshot()["counters"]:
        totals[series["name"]] += series["value"]
        if series["name"] == "repro_runs_total":
            outcome = series["labels"].get("outcome", "")
            totals[f"repro_runs_total:{outcome}"] += series["value"]
    return dict(totals)


def layer_rows(tracer: Tracer, before: dict, after: dict,
               bytes_written: int) -> dict[str, float]:
    """Every per-layer metric but the startup rows and the residual."""
    self_times = tracer.self_times()
    calls = Counter(span[0] for span in tracer.spans)
    rows: dict[str, float] = {
        name: self_times.get(name, 0.0)
        for name in TIME_ROWS
        if not name.startswith("startup.")
    }
    for metric, names in CALL_COUNTS.items():
        rows[metric] = sum(calls[name] for name in names)
    rows["model.samples"] = tracer.items["model.samples"]
    for metric, counter in REGISTRY_COUNTS.items():
        rows[metric] = int(after.get(counter, 0) - before.get(counter, 0))
    candidates = rows["geometry.candidate_pairs"]
    rows["geometry.candidate_precision"] = (
        rows["geometry.exact_pairs"] / candidates if candidates else 0.0
    )
    rows["geometry.pruning_ratio"] = (
        rows["geometry.pair_product"] / candidates if candidates else 0.0
    )
    rows["engine.store.bytes_written"] = bytes_written
    failed = "repro_runs_total:failed"
    rows["engine.runs_failed"] = int(after.get(failed, 0) - before.get(failed, 0))
    return rows
