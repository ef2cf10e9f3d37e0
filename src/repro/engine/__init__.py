"""The experiment engine: dependency-aware runs over a content store.

The paper's evaluation is a sweep — applications x partitioners x
machines, re-run per figure and ablation — and the 3-D workloads made it
strictly bigger.  This subsystem turns every such computation into a
declarative job:

* :mod:`repro.engine.spec` — the :class:`RunSpec`/:class:`RunResult` job
  model with a stable content hash and explicit input edges
  (``RunSpec.inputs``);
* :mod:`repro.engine.graph` — the spec dependency graph: submitted jobs
  plus their implicit trace inputs, deduplicated, resolved against the
  store and layered topologically (:func:`build_plan`);
* :mod:`repro.engine.store` — the content-addressed artifact store
  (``REPRO_CACHE_DIR``, default ``~/.cache/repro``) with LRU eviction
  (:meth:`ResultStore.gc`);
* :mod:`repro.engine.executor` — the DAG executor: resolves plans,
  runs each layer in this process (``n_jobs=1``) or as trace-aware
  shards over one local process pool (``n_jobs > 1``), then loads
  results back from the store; a run that raises on either path leaves
  a failure record next to the store.  It also owns the trace job:
  :func:`paper_trace` serves a workload trace, running its spec on a
  miss, and :func:`clear_trace_cache` drops the cached ones;
* :mod:`repro.engine.components` — the built-in components, registered
  with the unified :mod:`repro.registry` (``create`` / ``registry`` /
  ``describe`` are re-exported here), the workload scales among them
  with the trace job's helpers :func:`paper_config`,
  :func:`shadow_shape` and :func:`workload_ndim`;
* :mod:`repro.engine.cli` — the ``python -m repro`` command line
  (``run`` / ``sweep`` / ``plan`` / ``graph`` / ``report`` /
  ``profile`` / ``describe`` / ``cache``).

This package is the engine's **versioned public API**, and
:data:`ENGINE_API_VERSION` states its removal policy: a name in
``__all__`` (or a CLI flag, or a parameter) is removed in a release
that bumps the major component, with a note below and in the README
naming each removed surface, and without moving any store key.  Since
3.0 no removal has had a release of ``DeprecationWarning`` first.
:data:`ENGINE_SCHEMA_VERSION` (part of every content hash) is
orthogonal: it only moves when stored-result *semantics* change, so an
API redesign that keeps hashes stable keeps every warm store warm.
"""

from .executor import (
    clear_trace_cache,
    execute,
    paper_trace,
    run_spec,
    run_specs,
    shard_specs,
)
from .graph import MissingInputError, Plan, SpecNode, build_plan, toposort_layers
from .components import (
    STATIC_SUITE,
    create,
    describe,
    is_schedule,
    paper_config,
    register,
    registry,
    resolve_machine,
    shadow_shape,
    validate_partitioner,
    workload_ndim,
)
from .spec import (
    ENGINE_SCHEMA_VERSION,
    RunResult,
    RunSpec,
    penalties_spec,
    sim_spec,
    trace_spec,
)
from .store import (
    DEFAULT_CACHE_DIR,
    ResultStore,
    clear_read_cache,
    default_store,
    read_cache_stats,
)

#: Version of this public surface (semver; major bumps are breaking).
#: 1.1: execution backends (serial/process/cluster), ``run_specs``
#: ``backend``/``workers``/``verbose`` parameters, ``repro worker``.
#: 1.3: ``ResultStore.iter_results`` streaming listing; the
#: :mod:`repro.warehouse` columnar subsystem (``repro warehouse``,
#: ``repro report --from-warehouse``, registry kind
#: ``warehouse-format``).
#: 1.4: the store read plane — memory-mapped series loads, the
#: per-process read cache (``read_cache_stats``/``clear_read_cache``)
#: — and the pair-kernel reuse layer (removed in 6.0).
#: 2.0: the deprecated PR-2 ``make_*`` construction shims are gone
#: (use ``create`` / ``resolve_machine``); ``read_cache_stats`` is a view of
#: the metrics registry that ``clear_read_cache`` no longer zeroes; an
#: implicit input is planned only when a pending node consumes it
#: (``SpecNode.pending`` is a field).
#: 3.0: one runtime path per metric and per store read.  Removed: the
#: simulator's dense cross-check flag and the dense migration reference
#: (the metric functions take owner maps only; convert a raster with
#: ``OwnerMap.from_raster``); the memory-mapped series loader, its
#: environment switch and its read-cache counter; the read-cache size
#: and flight-ring size environment knobs (now the constants
#: ``store.READ_CACHE_ENTRIES`` and ``telemetry.flight.FLIGHT_CAPACITY``)
#: and ``FLIGHT_CAPACITY_ENV``; ``ResultStore.entries`` (use
#: ``iter_results``).
#: 4.0: the sweep warehouse is gone; the store scan is the one read
#: path for figures and reports.  Removed: ``repro.warehouse``, the
#: ``warehouse-format`` registry kind (``registry("warehouse-format")``
#: raises), ``repro warehouse build|status|query``,
#: ``repro report --from-warehouse``/``--warehouse-dir``, the
#: ``warehouse=`` parameter of the figure functions and
#: ``repro.experiments.render_group_stats``.
#: 5.0: a failed run leaves a failure record (its run profile with
#: ``outcome: "failed"``) on every backend, and the fleet it replaces
#: is gone.  Removed: the ``cluster`` backend with ``ClusterBackend``,
#: ``ClusterJobError``, ``JobQueue``, ``Worker`` and ``new_worker_id``;
#: ``repro.telemetry.flight`` (``FlightRecorder``, ``flight_dump``,
#: ``render_blackbox``, ...); ``cluster_status_doc``,
#: ``render_cluster_status`` and ``evaluate_health``; ``repro worker``,
#: ``top``, ``health`` and ``blackbox``; ``--workers`` and
#: ``--log-level``; the ``workers=`` parameter of ``run_specs`` and of
#: the backend resolver; the metrics server's ``health=`` hook; and the
#: ``REPRO_WORKER_FAIL_KEYS`` knob.
#: 6.0: one pair-candidate path — brute force for small pair products,
#: the grid above them — with nothing left to switch.  Removed: the
#: persistent pair index (its class and ``OwnerMap.pair_index``), the
#: sweep candidate mode, the per-box subtraction fallback, both pair
#: environment knobs with their mode getters, forcing context managers
#: and ``PAIR_INDEX_MODES``/``PAIR_REUSE_MODES``, the ``pair-index`` and
#: ``pair-reuse`` registry kinds (``registry("pair-index")`` raises),
#: the ``a_index``/``b_index``/``index``/``top_index`` kernel
#: parameters, the combined overlap-and-matched volume kernel, and the
#: ``sweep_queries``/``index_builds``/``index_reuses`` pair counters.
#: 7.0: counters are the only kind of metric, and nothing exports them.
#: Removed: the Prometheus text / JSON / HTTP exporter module with its
#: per-process snapshot files under ``<store>/telemetry/``, so a sweep
#: with telemetry off leaves no telemetry directory; the sweep's metrics
#: port option; gauges and histograms (``MetricsRegistry.set`` and
#: ``observe``, their module-level helpers, the default bucket bounds
#: and the run-latency histogram); pull-time collectors and the process
#: uptime / peak-RSS series they fed; the snapshot fields only scrapers
#: read (``schema``, ``host``, ``pid`` and the two timestamps) with
#: ``MetricsRegistry(clock=)``; the store-publish, plan-layer and
#: plan-job counters, which nothing read; and the unused span helpers
#: ``annotate``, ``TelemetryRecorder.annotate_current``,
#: ``flush_active`` and ``telemetry_enabled``.  ``snapshot()`` returns
#: ``{"counters": [...]}``, sorted.
#: 8.0: one way to run a plan — ``n_jobs`` alone picks this process or
#: one local pool — and a fixed table of five component kinds.
#: Removed: the execution-backend package with its base class, its two
#: implementations, its resolver, its name listing, its registry kind
#: (``registry("backend")`` raises), its status-line helper and its
#: placement reports; the engine's live backend-name tuple; the
#: ``verbose`` parameter of ``run_specs`` with its backend and per-layer
#: queued/leased lines; entry-point plugin discovery with its group
#: constant, its kind-declaration hook and its live kind listing
#: (``COMPONENT_KINDS`` is the table); ``repro run|sweep|plan
#: --backend``, ``repro sweep --verbose``, ``repro plan --n-jobs``; and
#: the ``backend=`` parameter of ``meta_vs_static``.  ``run_specs``
#: keeps ``backend=None | "serial"`` for the benchmark harness only.
#: 9.0: one way to list a kind's names, and usage errors that exit 2.
#: Removed: the live name tuples ``PARTITIONER_NAMES``,
#: ``SCHEDULE_NAMES`` and ``MACHINE_NAMES`` (from this package and from
#: ``repro.engine.components``) with both module ``__getattr__`` hooks
#: (use ``tuple(registry(kind))``); the registry's ``tags=`` parameter
#: of ``register``, ``RegistryEntry.tags``, ``Registry.names`` (iterate
#: the registry; ``STATIC_SUITE`` names the static suite) and the
#: ``"tags"`` key of ``describe()``; and ``RunSpec.input_keys`` (use
#: ``spec.key()`` over ``RunSpec.inputs()``).  ``Registry.create`` now
#: rejects a parameter value whose type does not match the parameter's
#: default with ``ValueError``, so ``repro run --param unit_size=abc``
#: exits 2 and leaves a failure record, and the CLI's unknown app,
#: partitioner, machine and component kind, a ``--param`` without
#: ``=`` and ``cache gc`` without a budget exit 2 with one ``error:``
#: line instead of 1.
#: 10.0: one planner and one in-process trace memo.  Removed:
#: ``plan_specs`` (use ``build_plan(specs, store)``: its submitted nodes
#: are the unique specs in submission order, and ``pending()`` lists
#: the unstored ones).  The store's read cache is the only in-process
#: trace memo: ``ResultStore.put_trace`` seeds it with the trace it
#: publishes, and ``clear_trace_cache(memory_only=True)`` empties it.
#: The README's migration note names each removed function.
#: 11.0: one record per run.  Every path that computes — ``run_spec``
#: on a miss or under ``force``, a layer in this process, a pool shard
#: and the read-back fallback of ``run_specs`` — computes, publishes
#: and records a spec inside one run scope, and its run profile is the
#: only span log; ``chrome`` mode adds the run's Chrome trace at
#: ``<store>/telemetry/traces/<key>.trace.json``.  ``execute`` only
#: computes: it neither publishes a result nor records the run.
#: Removed: ``repro.telemetry.session`` with the sweep-wide event log
#: and its Chrome trace, the per-process event logs of pool workers and
#: bare runs, ``repro.telemetry.recording``, the event-log reader, the
#: recorder's event-log sink, its flush, its ``subtree`` query and its
#: ``meta`` parameter and attribute, ``chrome_trace`` of a recorder
#: (pass its ``events``), and the ``run_specs``, ``plan.layer`` and
#: ``collect_results`` spans.  The README's migration note names each
#: removed function.
#: 11.1: the engine owns the trace job.  Added: ``paper_trace``,
#: ``clear_trace_cache``, ``paper_config``, ``shadow_shape`` and
#: ``workload_ndim``, which :mod:`repro.experiments` still exports; the
#: built-in scales register when :mod:`repro.engine.components`
#: imports.  ``run_spec`` is ``run_specs`` of one spec, so a missing
#: trace input is computed as its own run.  ``ResultStore``'s readers
#: share one rule for a sound ``meta.json``: a document whose ``key``
#: names another entry, or that lacks one, is a corrupt entry that every
#: read path retires and ``verify`` reports.
#: 12.0: one store entry rule, and ``_run`` the only publisher.
#: Removed: ``ResultStore.load_meta`` (nothing called it).  Narrowed:
#: ``execute`` publishes nothing, and a ``sim`` or ``penalties`` spec
#: needs its trace in the store (``MissingInputError`` otherwise).
#: ``get_trace`` of a non-trace entry is a plain miss.
ENGINE_API_VERSION = "12.0"

__all__ = [
    # versions
    "ENGINE_API_VERSION",
    "ENGINE_SCHEMA_VERSION",
    # job model
    "RunSpec",
    "RunResult",
    "trace_spec",
    "sim_spec",
    "penalties_spec",
    # store
    "ResultStore",
    "default_store",
    "DEFAULT_CACHE_DIR",
    "read_cache_stats",
    "clear_read_cache",
    # spec graph
    "Plan",
    "SpecNode",
    "build_plan",
    "toposort_layers",
    "MissingInputError",
    # execution
    "execute",
    "run_spec",
    "run_specs",
    "shard_specs",
    # the trace job
    "paper_trace",
    "clear_trace_cache",
    "paper_config",
    "shadow_shape",
    "workload_ndim",
    # component registry
    "create",
    "describe",
    "register",
    "registry",
    "resolve_machine",
    "is_schedule",
    "validate_partitioner",
    "STATIC_SUITE",
]
