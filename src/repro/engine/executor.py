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
return bit-identical results.  A run that raises, in this process or in
a pool worker, leaves a failure record under ``<store>/telemetry/runs/``
(see :func:`execute`).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Sequence

import numpy as np

from ..simulator import TraceSimulator
from ..telemetry import deactivate, metric_inc, run_scope, session, span
from .graph import MissingInputError, Plan, build_plan
from .components import create, is_schedule, resolve_machine
from .spec import RunResult, RunSpec
from .store import ResultStore, default_store

__all__ = ["execute", "run_spec", "run_specs", "shard_specs"]

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


def execute(spec: RunSpec, store: ResultStore | None = None) -> RunResult:
    """Compute one spec from scratch (no result-store lookup).

    The workload trace itself still goes through the trace cache, so
    repeated executions only pay for the simulator/model work.

    Every execution runs inside a telemetry
    :func:`~repro.telemetry.run_scope`, in this process and in a pool
    worker alike.  With telemetry enabled this opens the per-run ``run``
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
    forcing one means deleting the artifact, which also evicts it from
    the store's read cache; overwriting it with the executor's
    array-less result would clobber ``trace.json.gz``.
    """
    for spec in specs:
        if spec.kind == "trace":
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


def _verify_layer_inputs(
    layer: Sequence[str], plan: Plan, store: ResultStore
) -> None:
    """Fail fast if a layer's inputs never materialized in the store."""
    for key in layer:
        node = plan.node(key)
        for input_key in node.inputs:
            if store.has(input_key):
                continue
            input_node = plan.nodes.get(input_key)
            input_label = (
                input_node.spec.label() if input_node else input_key[:12]
            )
            raise MissingInputError(
                f"{node.spec.label()} requires input {input_label} "
                f"({input_key[:12]}) which is not in the store"
            )


def _run_in_process(
    specs: Sequence[RunSpec], store: ResultStore, force: bool, say: Progress
) -> None:
    for spec in specs:
        store.put_result(
            execute(spec, store), overwrite=force and spec.kind != "trace"
        )
        say(f"computed {spec.label()}")


def _run_on_pool(
    pool: ProcessPoolExecutor,
    n_jobs: int,
    specs: Sequence[RunSpec],
    store: ResultStore,
    force: bool,
    say: Progress,
) -> None:
    futures = {
        pool.submit(
            _run_shard, str(store.root), [s.to_json() for s in shard], force
        ): i
        for i, shard in enumerate(shard_specs(specs, n_jobs))
    }
    for future in as_completed(futures):
        finished = future.result()  # propagate worker failures
        say(f"shard {futures[future]} finished ({len(finished)} specs)")


def _run_plan(
    plan: Plan, store: ResultStore, n_jobs: int, force: bool, say: Progress
) -> None:
    """Publish every pending node, layer by layer."""
    # One pool for the whole plan — but none at all when a single
    # pending job (or n_jobs=1) makes the spawn overhead pure waste.
    pool = (
        ProcessPoolExecutor(max_workers=n_jobs)
        if n_jobs > 1 and len(plan.pending()) > 1
        else None
    )
    try:
        for depth, layer in enumerate(plan.layers):
            _verify_layer_inputs(layer, plan, store)
            specs = plan.layer_specs(depth)
            if len(plan.layers) > 1:
                say(f"layer {depth}: {len(specs)} jobs")
            with span("plan.layer", cat="engine", depth=depth,
                      jobs=len(specs)):
                if pool is None or len(specs) == 1:
                    _run_in_process(specs, store, force, say)
                else:
                    _run_on_pool(pool, n_jobs, specs, store, force, say)
    finally:
        if pool is not None:
            pool.shutdown()


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
    # The sweep-wide telemetry session (a no-op when REPRO_TELEMETRY is
    # off, or transparent when an outer session is already live).
    with session(store.root, name="sweep",
                 meta={"n_jobs": n_jobs, "submitted": len(specs)}):
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
        with span("run_specs", cat="engine", n_jobs=n_jobs,
                  submitted=len(specs), compute=counts["compute"]):
            _run_plan(plan, store, n_jobs, force, say)
        by_key: dict[str, RunResult] = {}
        with span("collect_results", cat="engine", n=len(plan.submitted())):
            for node in plan.submitted():
                result = store.get_result(node.key)
                if result is None:  # pragma: no cover - store corruption guard
                    result = run_spec(node.spec, store)
                by_key[node.key] = result
    return [by_key[spec.key()] for spec in specs]
