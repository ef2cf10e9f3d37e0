"""DAG execution of :class:`RunSpec` jobs over the result store.

:func:`run_specs` is the engine's workhorse: it resolves the submitted
specs into a dependency-aware :class:`~repro.engine.graph.Plan`
(deduplicated, implicit trace inputs expanded, everything the store
already holds pruned — which is what makes a killed sweep *resumable*
and lets a sim sweep over a warm store execute zero trace jobs), then
hands the plan to an **execution backend**
(:mod:`repro.engine.backends`) that walks its topological layers:
traces first, dependents fanned out in parallel once their inputs are
published.

``backend="serial"`` runs everything in-process, and ``"process"``
shards each layer trace-aware across a local pool (specs sharing
``(app, scale, seed)`` stay together so each worker loads every trace
at most once).  Whoever computes, results travel only through the
content-addressed store — the parent loads every artifact back from
disk, so all backends return bit-identical results.  A run that
raises, on any backend, leaves a failure record under
``<store>/telemetry/runs/`` (see :func:`execute`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..simulator import TraceSimulator
from ..telemetry import deactivate, metric_inc, run_scope, session, span
from .graph import build_plan
from .components import create, is_schedule, resolve_machine
from .spec import RunResult, RunSpec
from .store import ResultStore, default_store

__all__ = ["execute", "run_spec", "run_specs", "plan_specs", "shard_specs"]

#: StepMetrics columns stored as integer series.
_INT_COLUMNS = (
    "step",
    "ncells",
    "workload",
    "comm_cells",
    "interlevel_cells",
    "migration_cells",
)
#: StepMetrics columns stored as float series.
_FLOAT_COLUMNS = (
    "time",
    "load_imbalance",
    "relative_comm",
    "relative_migration",
    "partition_seconds",
    "compute_seconds",
    "comm_seconds",
    "migration_seconds",
    "total_seconds",
)


def _trace_for(spec: RunSpec, store: ResultStore):
    # Lazy: repro.experiments imports the engine at module scope; the
    # engine may only reach back at call time.
    from ..experiments.workloads import paper_trace

    return paper_trace(spec.app, spec.scale, seed=spec.seed, store=store)


def trace_meta(trace) -> dict:
    """The summary document stored alongside a trace artifact."""
    return {"trace": trace.name, "stats": trace.stats().to_json()}


def _execute_sim(spec: RunSpec, store: ResultStore) -> RunResult:
    trace = _trace_for(spec, store)
    machine = resolve_machine(spec.machine)
    sim = TraceSimulator(machine=machine, ghost_width=spec.ghost_width)
    if is_schedule(spec.partitioner):
        schedule = create(
            "schedule", spec.partitioner, machine=machine, nprocs=spec.nprocs
        )
        result = sim.run_scheduled(trace, schedule, spec.nprocs)
    else:
        partitioner = create("partitioner", spec.partitioner, **dict(spec.params))
        result = sim.run(trace, partitioner, spec.nprocs)
    arrays = {
        name: np.array(
            [getattr(s, name) for s in result.steps], dtype=np.int64
        )
        for name in _INT_COLUMNS
    }
    arrays.update(
        {name: result.series(name) for name in _FLOAT_COLUMNS}
    )
    meta = {
        "trace": result.trace_name,
        "partitioner": result.partitioner,
        "nprocs": result.nprocs,
        "total_execution_seconds": result.total_execution_seconds,
        "summary": result.summary(),
    }
    return RunResult(spec=spec, key=spec.key(), meta=meta, arrays=arrays)


def _execute_penalties(spec: RunSpec, store: ResultStore) -> RunResult:
    from ..model import StateSampler

    trace = _trace_for(spec, store)
    sampler = StateSampler(
        machine=resolve_machine(spec.machine),
        ghost_width=spec.ghost_width,
        migration_denominator=spec.migration_denominator,
        nprocs=spec.nprocs,
    )
    samples = sampler.sample_trace(trace)
    arrays = {
        "step": np.array([s.step for s in samples], dtype=np.int64),
        "beta_l": np.array([s.beta_l for s in samples]),
        "beta_c": np.array([s.beta_c for s in samples]),
        "beta_m": np.array([s.beta_m for s in samples]),
        "dim1": np.array([s.point.dim1 for s in samples]),
        "dim2": np.array([s.point.dim2 for s in samples]),
        "dim3": np.array([s.point.dim3 for s in samples]),
        "requested_fraction": np.array(
            [s.tradeoff2.requested_fraction for s in samples]
        ),
        "requested_seconds": np.array(
            [s.tradeoff2.requested_seconds for s in samples]
        ),
        "offered_seconds": np.array(
            [s.tradeoff2.offered_seconds for s in samples]
        ),
        "normalized_grid_size": np.array(
            [s.tradeoff2.normalized_grid_size for s in samples]
        ),
    }
    meta = {
        "trace": trace.name,
        "nprocs": spec.nprocs,
        "migration_denominator": spec.migration_denominator,
        "nsamples": len(samples),
    }
    return RunResult(spec=spec, key=spec.key(), meta=meta, arrays=arrays)


def execute(spec: RunSpec, store: ResultStore | None = None) -> RunResult:
    """Compute one spec from scratch (no result-store lookup).

    The workload trace itself still goes through the trace cache, so
    repeated executions only pay for the simulator/model work.

    Every execution runs inside a telemetry
    :func:`~repro.telemetry.run_scope`, no matter which backend
    performed it.  With telemetry enabled this opens the per-run ``run``
    span, records the metrics-registry counter deltas of the run, and
    publishes a run profile for ``repro profile <key>`` under
    ``<store>/telemetry/``.  With telemetry on or off, a run that raises
    publishes a failure record there (spec, error, traceback, counter
    deltas), which ``repro cache ls`` flags and a later success of the
    same key retires.
    """
    store = store or default_store()
    try:
        with run_scope(spec, store):
            result = _execute_kind(spec, store)
    except BaseException:
        metric_inc("repro_runs_total", kind=spec.kind, outcome="failed")
        raise
    metric_inc("repro_runs_total", kind=spec.kind, outcome="completed")
    return result


def _execute_kind(spec: RunSpec, store: ResultStore) -> RunResult:
    if spec.kind == "sim":
        return _execute_sim(spec, store)
    if spec.kind == "penalties":
        return _execute_penalties(spec, store)
    # kind == "trace": generating via the cache also publishes the artifact.
    trace = _trace_for(spec, store)
    return RunResult(
        spec=spec, key=spec.key(), meta=trace_meta(trace), arrays={}
    )


def _forget_traces(specs: Sequence[RunSpec], store: ResultStore) -> None:
    """Force-path helper: retire stored trace artifacts for regeneration.

    A ``trace`` entry is republished by the trace cache itself, so
    forcing one means deleting the artifact and the in-process memo;
    overwriting it with the executor's array-less result would clobber
    ``trace.json.gz``.
    """
    trace_specs = [s for s in specs if s.kind == "trace"]
    if not trace_specs:
        return
    from ..experiments.workloads import clear_trace_cache

    clear_trace_cache(store=store, memory_only=True)
    for spec in trace_specs:
        store.remove(spec.key())


def run_spec(
    spec: RunSpec,
    store: ResultStore | None = None,
    force: bool = False,
) -> RunResult:
    """Load one spec's result from the store, computing it on a miss.

    ``force`` recomputes and replaces whatever the store holds.
    """
    store = store or default_store()
    key = spec.key()
    if not force:
        cached = store.get_result(spec)
        if cached is not None:
            return cached
    else:
        _forget_traces([spec], store)
    result = execute(spec, store)
    # ``has`` despite a failed load means the entry is corrupt (a hard
    # kill mid-publish): replace it rather than no-op against the husk.
    overwrite = spec.kind != "trace" and (force or store.has(key))
    store.put_result(result, overwrite=overwrite)
    stored = store.get_result(spec)
    # Return the store's view so every caller sees identical bytes.
    return stored if stored is not None else result


def plan_specs(
    specs: Sequence[RunSpec], store: ResultStore
) -> tuple[list[RunSpec], list[RunSpec]]:
    """Split submitted work into (unique specs, specs missing from store)."""
    unique: list[RunSpec] = []
    seen: set[str] = set()
    for spec in specs:
        key = spec.key()
        if key not in seen:
            seen.add(key)
            unique.append(spec)
    missing = [s for s in unique if not store.has(s.key())]
    return unique, missing


def shard_specs(specs: Sequence[RunSpec], n_shards: int) -> list[list[RunSpec]]:
    """Deal specs into ``n_shards`` chunks, trace-aware but balanced.

    Specs sharing ``(app, scale, seed)`` are kept together where possible
    (one trace generation/load per worker), but a workload group larger
    than its fair share is split so a single-app sweep still parallelizes
    — the extra worker re-reads the trace from the store, which is far
    cheaper than serializing the whole sweep.  Groups go to the
    least-loaded shard; deterministic for a given input order.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in specs:
        groups.setdefault((spec.app, spec.scale, spec.seed), []).append(spec)
    fair = -(-len(specs) // n_shards)  # ceil: a shard's fair share
    chunks: list[list[RunSpec]] = []
    for group in groups.values():
        chunks.extend(
            group[i : i + fair] for i in range(0, len(group), fair)
        )
    shards: list[list[RunSpec]] = [[] for _ in range(n_shards)]
    for chunk in sorted(chunks, key=len, reverse=True):
        min(shards, key=len).extend(chunk)
    return [s for s in shards if s]


def _run_shard(root: str, spec_docs: list[dict], overwrite: bool) -> list[str]:
    """Worker entry point: compute one shard, publish into the store."""
    # A forked worker inherits the parent's live session recorder, whose
    # log only the parent flushes.  Drop it unflushed, so each run logs
    # into this process's own exec log instead.
    deactivate()
    store = ResultStore(root)
    keys: list[str] = []
    for doc in spec_docs:
        spec = RunSpec.from_json(doc)
        store.put_result(
            execute(spec, store),
            overwrite=overwrite and spec.kind != "trace",
        )
        keys.append(spec.key())
    return keys


def run_specs(
    specs: Iterable[RunSpec],
    n_jobs: int = 1,
    store: ResultStore | None = None,
    force: bool = False,
    progress: Callable[[str], None] | None = None,
    backend: "str | object | None" = None,
    verbose: bool = False,
) -> list[RunResult]:
    """Run a batch of specs as a dependency graph over a backend.

    Parameters
    ----------
    specs :
        Jobs to run; duplicates are computed once and share the result.
        Implicit inputs (the workload traces of ``sim`` / ``penalties``
        jobs) are scheduled automatically when the store lacks them —
        traces first, dependents fanned out once they are published.
    n_jobs :
        Worker processes for the default local backends: ``1`` selects
        ``serial`` (everything in-process, no pool), ``>1`` selects
        ``process`` with that many workers.  Ignored when ``backend``
        names anything else.
    store :
        Result store (default: ``REPRO_CACHE_DIR`` / ``~/.cache/repro``).
    force :
        Recompute even when the store already holds a result (submitted
        specs only; implicit inputs still resolve against the store).
    progress :
        Optional callback receiving one human-readable line per event.
    backend :
        Execution backend: a registered name (``"serial"``,
        ``"process"``, or a plugin's), an
        :class:`~repro.engine.backends.ExecutionBackend` instance, or
        ``None`` for the historical ``n_jobs`` behavior.  Every backend
        publishes to — and this function reads back from — the store,
        so results are bit-identical across backends.
    verbose :
        Emit per-layer progress lines (jobs queued/leased/done) through
        ``progress`` in addition to the coarse events.

    Returns
    -------
    list[RunResult]
        One result per submitted spec, in submission order.
    """
    specs = list(specs)
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    store = store or default_store()
    # Lazy: backends import this module (execute/shard helpers), so the
    # front-end resolves them at call time.
    from .backends import resolve_backend

    engine_backend = resolve_backend(backend, n_jobs=n_jobs)
    # The sweep-wide telemetry session (a no-op when REPRO_TELEMETRY is
    # off, or transparent when an outer session is already live).
    with session(store.root, name="sweep",
                 meta={"backend": engine_backend.name,
                       "submitted": len(specs)}):
        plan = build_plan(specs, store, force=force)
        if force:
            _forget_traces(
                [node.spec for node in plan.submitted() if node.pending], store
            )
        say = progress or (lambda line: None)
        counts = plan.counts()
        implicit = counts["implicit_compute"]
        extra = (
            f" (+{implicit} trace input{'s' if implicit != 1 else ''})"
            if implicit
            else ""
        )
        say(
            f"{len(specs)} submitted: {counts['submitted']} unique, "
            f"{counts['stored']} in store, {counts['compute']} to compute{extra}"
        )
        if verbose:
            say(f"backend: {engine_backend.name}")
        with span("run_specs", cat="engine", backend=engine_backend.name,
                  submitted=len(specs), compute=counts["compute"]):
            engine_backend.run_plan(
                plan, store, force=force, progress=progress, verbose=verbose
            )
        by_key: dict[str, RunResult] = {}
        with span("collect_results", cat="engine", n=len(plan.submitted())):
            for node in plan.submitted():
                result = store.get_result(node.key)
                if result is None:  # pragma: no cover - store corruption guard
                    result = run_spec(node.spec, store)
                by_key[node.key] = result
    return [by_key[spec.key()] for spec in specs]
