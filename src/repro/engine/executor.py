"""DAG execution of :class:`RunSpec` jobs over the result store.

:func:`run_specs` is the engine's workhorse: it resolves the submitted
specs into a dependency-aware :class:`~repro.engine.graph.Plan`
(deduplicated, implicit trace inputs expanded, everything the store
already holds pruned — which is what makes a killed sweep *resumable*
and lets a sim sweep over a warm store execute zero trace jobs), then
walks its topological layers: traces first, dependents fanned out once
their inputs are published.

``n_jobs`` alone picks how a layer runs.  ``n_jobs=1`` runs every job
in this process; ``n_jobs > 1`` deals each layer into trace-aware
shards over one local process pool (specs sharing ``(app, scale,
seed)`` stay together so each worker loads every trace at most once).
Whoever computes, results travel only through the content-addressed
store — the parent loads every artifact back from disk, so both paths
return bit-identical results.

A *run* is one unit on every path, and ``_run`` is the only place the
engine publishes: inside one telemetry :func:`~repro.telemetry.run_scope`
it computes the spec, publishes its entry and is recorded once.  With
telemetry on, its run profile (and, in ``chrome`` mode, its Chrome
trace) under ``<store>/telemetry/`` holds every span of the run, the
store publish included; a run that raises leaves a failure record there
in every mode.  :func:`execute` publishes nothing and never generates
an input, so every trace is computed as its own run: in a plan layer,
in the re-plan of keys that read back empty or lost their trace, or by
:func:`paper_trace`.

The trace job lives here as well: :func:`paper_trace` serves a
workload trace from the store and runs its trace spec on a miss; the
store's read cache is its in-process memo, which
:func:`clear_trace_cache` empties.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Sequence

import numpy as np

from ..apps import generate_trace, make_application
from ..model import StateSampler
from ..simulator import TraceSimulator
from ..telemetry import metric_inc, run_scope
from ..trace import Trace
from .graph import MissingInputError, Plan, build_plan
from .components import (
    create,
    is_schedule,
    paper_config,
    resolve_machine,
    shadow_shape,
)
from .spec import RunResult, RunSpec, trace_spec
from .store import ResultStore, clear_read_cache, default_store

__all__ = [
    "clear_trace_cache",
    "execute",
    "paper_trace",
    "run_spec",
    "run_specs",
    "shard_specs",
]

#: A progress callback: receives one human-readable line per event.
Progress = Callable[[str], None]

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


def _generate(spec: RunSpec) -> Trace:
    """Generate the workload trace a ``trace`` spec describes."""
    kwargs = {"shape": shadow_shape(spec.scale, spec.ndim)}
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    app = make_application(spec.app, **kwargs)
    return generate_trace(app, paper_config(spec.scale, spec.ndim))


def paper_trace(
    name: str,
    scale: str = "paper",
    seed: int | None = None,
    store: ResultStore | None = None,
) -> Trace:
    """The deterministic trace of one application at one scale.

    Read from ``store`` (default: ``REPRO_CACHE_DIR`` /
    ``~/.cache/repro``) and memoized by its read cache.  On a miss the
    trace spec runs as its own run, which generates, publishes and
    records it, so every caller regenerates a given trace at most once
    per store.
    """
    spec = trace_spec(name, scale, seed=seed)
    store = store or default_store()
    trace = store.get_trace(spec)
    if trace is None:
        trace = _run(spec, store)[1]
    return trace


def clear_trace_cache(
    store: ResultStore | None = None, *, memory_only: bool = False
) -> int:
    """Drop cached traces; returns the number of disk entries removed.

    Clears the store's per-process read cache always, and the on-disk
    trace entries of ``store`` (default store when omitted) unless
    ``memory_only`` is set.
    """
    clear_read_cache()
    if memory_only:
        return 0
    return (store or default_store()).clear(kind="trace")


def _execute_sim(spec: RunSpec, trace: Trace) -> RunResult:
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


def _execute_penalties(spec: RunSpec, trace: Trace) -> RunResult:
    sampler = StateSampler(
        machine=resolve_machine(spec.machine),
        ghost_width=spec.ghost_width,
        migration_denominator=spec.migration_denominator,
        nprocs=spec.nprocs,
    )
    series = sampler.penalty_series(trace)
    # One column per series field, in field order; ``steps`` is stored
    # as ``step``, like the sim columns.
    arrays = {
        ("step" if f.name == "steps" else f.name): getattr(series, f.name)
        for f in dataclasses.fields(series)
    }
    meta = {
        "trace": trace.name,
        "nprocs": spec.nprocs,
        "migration_denominator": spec.migration_denominator,
        "nsamples": len(series.steps),
    }
    return RunResult(spec=spec, key=spec.key(), meta=meta, arrays=arrays)


def _missing_input(spec: RunSpec, source: RunSpec) -> str:
    """Why ``spec`` cannot run: the store lacks its input ``source``."""
    return (
        f"{spec.label()} requires input {source.label()} "
        f"({source.key()[:12]}) which is not in the store"
    )


def _compute(
    spec: RunSpec, store: ResultStore
) -> tuple[RunResult, Trace | None]:
    """Compute one spec: its result, plus the trace a ``trace`` spec
    generates (``None`` for the other kinds)."""
    if spec.kind == "trace":
        trace = _generate(spec)
        meta = {"trace": trace.name, "stats": trace.stats().to_json()}
        return RunResult(spec=spec, key=spec.key(), meta=meta, arrays={}), trace
    (source,) = spec.inputs()
    trace = store.get_trace(source)
    if trace is None:
        raise MissingInputError(_missing_input(spec, source))
    if spec.kind == "sim":
        return _execute_sim(spec, trace), None
    return _execute_penalties(spec, trace), None


def execute(spec: RunSpec, store: ResultStore | None = None) -> RunResult:
    """Compute one spec from scratch (no result-store lookup).

    A ``trace`` spec generates its trace; a ``sim`` or ``penalties``
    spec replays the trace ``store`` holds and raises
    :class:`MissingInputError` when it holds none.  Nothing is
    published: a run — publish, run profile, failure record and the
    ``repro_runs_total`` count — is what :func:`run_specs` wraps around
    a computation.
    """
    return _compute(spec, store or default_store())[0]


def _run(
    spec: RunSpec, store: ResultStore, force: bool = False
) -> tuple[RunResult, Trace | None]:
    """One run: compute ``spec`` and publish it inside one run scope.

    The engine's only publisher: every path that computes calls this,
    so each execution is recorded once (its run profile holds the
    store publish span) and counted once in ``repro_runs_total``.
    ``force`` replaces what the store holds by an atomic overwrite, for
    every kind; without it a key another process published first is
    left alone.  Returns what :func:`_compute` returned.
    """
    try:
        with run_scope(spec, store):
            result, trace = _compute(spec, store)
            if trace is None:
                store.put_result(result, overwrite=force)
            else:
                store.put_trace(spec, trace, result.meta, overwrite=force)
    except BaseException:
        metric_inc("repro_runs_total", kind=spec.kind, outcome="failed")
        raise
    metric_inc("repro_runs_total", kind=spec.kind, outcome="completed")
    return result, trace


def run_spec(
    spec: RunSpec,
    store: ResultStore | None = None,
    force: bool = False,
) -> RunResult:
    """One spec's result: ``run_specs([spec], store=store, force=force)[0]``.

    Read from the store, or computed on a miss — a missing trace input
    as its own run first.  ``force`` recomputes and replaces whatever
    the store holds for ``spec``.
    """
    return run_specs([spec], store=store, force=force)[0]


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


def _run_shard(root: str, spec_docs: list[dict], force: bool) -> list[str]:
    """Worker entry point: run one shard; returns its lost keys."""
    specs = [RunSpec.from_json(doc) for doc in spec_docs]
    return _run_in_process(specs, ResultStore(root), force, lambda line: None)


def _verify_layer_inputs(
    layer: Sequence[str], plan: Plan, store: ResultStore
) -> None:
    """Fail fast if a layer's inputs never materialized in the store."""
    for key in layer:
        node = plan.node(key)
        for input_key in node.inputs:
            if not store.has(input_key):
                raise MissingInputError(
                    _missing_input(node.spec, plan.node(input_key).spec)
                )


def _run_in_process(
    specs: Sequence[RunSpec], store: ResultStore, force: bool, say: Progress
) -> list[str]:
    """Run ``specs`` here; returns the keys whose run lost its input
    since the layer began (a read retired it as corrupt, or a gc
    evicted it), which :func:`run_specs` plans again."""
    lost: list[str] = []
    for spec in specs:
        try:
            _run(spec, store, force)
        except MissingInputError:
            lost.append(spec.key())
        else:
            say(f"computed {spec.label()}")
    return lost


def _run_on_pool(
    pool: ProcessPoolExecutor,
    n_jobs: int,
    specs: Sequence[RunSpec],
    store: ResultStore,
    force: bool,
    say: Progress,
) -> list[str]:
    futures = {
        pool.submit(
            _run_shard, str(store.root), [s.to_json() for s in shard], force
        ): (i, len(shard))
        for i, shard in enumerate(shard_specs(specs, n_jobs))
    }
    lost: list[str] = []
    for future in as_completed(futures):
        lost += future.result()  # propagate worker failures
        say("shard {} finished ({} specs)".format(*futures[future]))
    return lost


def _run_plan(
    plan: Plan, store: ResultStore, n_jobs: int, force: bool, say: Progress
) -> list[str]:
    """Publish every pending node, layer by layer; returns the lost keys."""
    # One pool for the whole plan — but none at all when a single
    # pending job (or n_jobs=1) makes the spawn overhead pure waste.
    pool = (
        ProcessPoolExecutor(max_workers=n_jobs)
        if n_jobs > 1 and len(plan.pending()) > 1
        else None
    )
    lost: list[str] = []
    try:
        for depth, layer in enumerate(plan.layers):
            _verify_layer_inputs(layer, plan, store)
            specs = plan.layer_specs(depth)
            if len(plan.layers) > 1:
                say(f"layer {depth}: {len(specs)} jobs")
            if pool is None or len(specs) == 1:
                lost += _run_in_process(specs, store, force, say)
            else:
                lost += _run_on_pool(pool, n_jobs, specs, store, force, say)
    finally:
        if pool is not None:
            pool.shutdown()
    return lost


def run_specs(
    specs: Iterable[RunSpec],
    n_jobs: int = 1,
    store: ResultStore | None = None,
    force: bool = False,
    progress: Progress | None = None,
    backend: str | None = None,
) -> list[RunResult]:
    """Run a batch of specs as a dependency graph.

    Parameters
    ----------
    specs :
        Jobs to run; duplicates are computed once and share the result.
        Implicit inputs (the workload traces of ``sim`` / ``penalties``
        jobs) are scheduled automatically when the store lacks them —
        traces first, dependents fanned out once they are published.
    n_jobs :
        ``1`` runs every job in this process, with no pool.  ``> 1``
        shards each layer across one pool of that many worker
        processes; a plan with one pending job, and a layer with one
        job, still run in this process.
    store :
        Result store (default: ``REPRO_CACHE_DIR`` / ``~/.cache/repro``).
    force :
        Recompute even when the store already holds a result (submitted
        specs only; implicit inputs still resolve against the store).
    progress :
        Optional callback receiving one human-readable line per event.
    backend :
        ``None``, or ``"serial"`` to force ``n_jobs=1``; anything else
        raises ``ValueError``.  It stays only because the benchmark
        harness passes ``"serial"``, and goes once it stops.

    Returns
    -------
    list[RunResult]
        One result per submitted spec, in submission order.  Both paths
        publish to — and this function reads back from — the store, so
        results are bit-identical for every ``n_jobs``.
    """
    specs = list(specs)
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if backend == "serial":
        n_jobs = 1
    elif backend is not None:
        raise ValueError(f"backend must be None or 'serial', got {backend!r}")
    store = store or default_store()
    plan = build_plan(specs, store, force=force)
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
    lost = _run_plan(plan, store, n_jobs, force, say)
    results = {node.key: store.get_result(node.key) for node in plan.submitted()}
    again = [node.spec for node in plan.submitted()
             if results[node.key] is None or node.key in lost]
    if again:
        # A run lost the trace it read, a read retired a corrupt entry,
        # or a concurrent gc evicted one: plan those keys once more, so
        # a trace they need is its own run first.
        lost = _run_plan(build_plan(again, store, force), store, n_jobs, force, say)
        for spec in again:
            got = None if spec.key() in lost else store.get_result(spec)
            if got is None:
                raise RuntimeError(f"{spec.label()} ({spec.key()[:12]}) "
                                   "is not in the store after a rerun")
            results[spec.key()] = got
    return [results[spec.key()] for spec in specs]
