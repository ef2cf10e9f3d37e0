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
* :mod:`repro.engine.executor` — the DAG executor front-end: resolves
  plans and hands them to an execution backend, then loads results back
  from the store;
* :mod:`repro.engine.backends` — the pluggable execution backends
  (registry kind ``"backend"``): ``serial`` (in-process) and
  ``process`` (trace-aware shards over a local pool); a run that raises
  on either leaves a failure record next to the store;
* :mod:`repro.engine.components` — the built-in components, registered
  with the unified :mod:`repro.registry` (``create`` / ``registry`` /
  ``describe`` are re-exported here);
* :mod:`repro.engine.cli` — the ``python -m repro`` command line
  (``run`` / ``sweep`` / ``plan`` / ``graph`` / ``report`` /
  ``profile`` / ``describe`` / ``cache``).

This package is the engine's **versioned public API**: everything in
``__all__`` follows the deprecation policy (one release of
``DeprecationWarning`` before removal), and
:data:`ENGINE_API_VERSION` bumps its major component on breaking
changes.  :data:`ENGINE_SCHEMA_VERSION` (part of every content hash) is
orthogonal: it only moves when stored-result *semantics* change, so an
API redesign that keeps hashes stable keeps every warm store warm.

Import discipline: :mod:`repro.experiments` imports this package at
module scope, so engine modules only import the experiment layer lazily
inside functions.
"""

from .executor import execute, plan_specs, run_spec, run_specs, shard_specs
from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from .graph import MissingInputError, Plan, SpecNode, build_plan, toposort_layers
from .components import (
    STATIC_SUITE,
    create,
    describe,
    is_schedule,
    load_plugins,
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
#: — and the pair-kernel reuse layer (``REPRO_PAIR_REUSE``).
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
#: ``--log-level``; the ``workers=`` parameter of ``run_specs`` and
#: ``resolve_backend``; ``MetricsServer(health=)``; and the
#: ``REPRO_WORKER_FAIL_KEYS`` knob.
ENGINE_API_VERSION = "5.0"

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
    # execution backends
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    # component registry
    "create",
    "describe",
    "register",
    "registry",
    "load_plugins",
    "resolve_machine",
    "is_schedule",
    "validate_partitioner",
    "STATIC_SUITE",
    # live name tuples (module __getattr__)
    "PARTITIONER_NAMES",
    "SCHEDULE_NAMES",
    "MACHINE_NAMES",
    "BACKEND_NAMES",
]


_NAME_TUPLE_KINDS = {
    "PARTITIONER_NAMES": "partitioner",
    "SCHEDULE_NAMES": "schedule",
    "MACHINE_NAMES": "machine",
    "BACKEND_NAMES": "backend",
}


def __getattr__(name: str):
    # Live views: stay current as components register at runtime.
    if name in _NAME_TUPLE_KINDS:
        return tuple(registry(_NAME_TUPLE_KINDS[name]))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
