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
  a failure record next to the store;
* :mod:`repro.engine.components` — the built-in components, registered
  with the unified :mod:`repro.registry` (``create`` / ``registry`` /
  ``describe`` are re-exported here);
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

Import discipline: :mod:`repro.experiments` imports this package at
module scope, so engine modules only import the experiment layer lazily
inside functions.
"""

from .executor import execute, plan_specs, run_spec, run_specs, shard_specs
from .graph import MissingInputError, Plan, SpecNode, build_plan, toposort_layers
from .components import (
    STATIC_SUITE,
    create,
    describe,
    is_schedule,
    register,
    registry,
    resolve_machine,
    validate_partitioner,
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
#: The README's migration note names each removed function.
ENGINE_API_VERSION = "8.0"

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
    "plan_specs",
    "shard_specs",
    # component registry
    "create",
    "describe",
    "register",
    "registry",
    "resolve_machine",
    "is_schedule",
    "validate_partitioner",
    "STATIC_SUITE",
    # live name tuples (module __getattr__)
    "PARTITIONER_NAMES",
    "SCHEDULE_NAMES",
    "MACHINE_NAMES",
]


_NAME_TUPLE_KINDS = {
    "PARTITIONER_NAMES": "partitioner",
    "SCHEDULE_NAMES": "schedule",
    "MACHINE_NAMES": "machine",
}


def __getattr__(name: str):
    # Live views: stay current as components register at runtime.
    if name in _NAME_TUPLE_KINDS:
        return tuple(registry(_NAME_TUPLE_KINDS[name]))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
