"""The execution-backend contract and its name resolution.

A backend is a strategy for draining a resolved
:class:`~repro.engine.graph.Plan`: it walks the plan's topological
layers and gets every pending spec *published into the content-addressed
store* — how (in-process, a local process pool, ...) is the backend's
business.  Because the store is the only channel results travel
through, every backend is bit-identical by construction:
:func:`~repro.engine.executor.run_specs` loads the final artifacts back
from disk no matter who computed them.

Backends are ordinary registry components (kind ``"backend"``), so
``create("backend", "process", n_jobs=2)`` works like any other
component, third parties can register their own (Slurm, ssh, ...), and
``repro describe --kind backend`` shows the parameter schemas.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from ...registry import create, registry
from ...telemetry import span
from ..graph import MissingInputError, Plan
from ..spec import RunSpec
from ..store import ResultStore

__all__ = [
    "BACKEND_KIND",
    "ExecutionBackend",
    "backend_names",
    "layer_status",
    "resolve_backend",
    "verify_layer_inputs",
]

#: The registry kind execution backends live under.
BACKEND_KIND = "backend"

Progress = Callable[[str], None]


def backend_names() -> tuple[str, ...]:
    """The registered backend names, live."""
    return tuple(registry(BACKEND_KIND))


def layer_status(
    depth: int, *, queued: int, leased: int, done: int, total: int
) -> str:
    """The per-layer progress line every backend emits under --verbose."""
    return (
        f"layer {depth}: {queued} queued, {leased} leased, "
        f"{done}/{total} done"
    )


def verify_layer_inputs(
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


class ExecutionBackend(abc.ABC):
    """Drains a plan's pending layers into the result store.

    The base class owns the layer walk (input verification, layer
    announcements); subclasses implement :meth:`run_layer` — and may
    wrap :meth:`run_plan` for plan-scoped setup/teardown (a process
    pool).
    """

    #: Registry name of the backend (cosmetic; the registry is canonical).
    name: str = "?"

    def run_plan(
        self,
        plan: Plan,
        store: ResultStore,
        *,
        force: bool = False,
        progress: Progress | None = None,
        verbose: bool = False,
    ) -> None:
        """Execute every pending node, layer by layer."""
        say = progress or (lambda line: None)
        for depth, layer in enumerate(plan.layers):
            verify_layer_inputs(layer, plan, store)
            specs = plan.layer_specs(depth)
            if len(plan.layers) > 1:
                say(f"layer {depth}: {len(specs)} jobs")
            with span("plan.layer", cat="engine", depth=depth,
                      jobs=len(specs), backend=self.name):
                self.run_layer(
                    depth, specs, store, force=force, say=say, verbose=verbose
                )

    @abc.abstractmethod
    def run_layer(
        self,
        depth: int,
        specs: Sequence[RunSpec],
        store: ResultStore,
        *,
        force: bool,
        say: Progress,
        verbose: bool,
    ) -> None:
        """Publish every spec of one (input-satisfied) layer."""

    def placement(self, plan: Plan, store: ResultStore) -> list[str]:
        """Human-readable lines describing where this backend would run
        the plan's pending jobs (``repro plan --backend ...``)."""
        jobs = sum(len(layer) for layer in plan.layers)
        return [f"{self.name}: {jobs} pending jobs"]


def resolve_backend(
    backend: "ExecutionBackend | str | None" = None,
    *,
    n_jobs: int = 1,
) -> ExecutionBackend:
    """Turn ``run_specs``'s backend argument into a backend instance.

    ``None`` keeps the historical behavior: ``serial`` for ``n_jobs=1``,
    ``process`` (with that many jobs) otherwise.  A string resolves
    through the component registry — ``process`` gets ``n_jobs``
    threaded; other registered backends are created bare.  An instance
    passes through untouched.
    """
    if backend is None:
        backend = "process" if n_jobs > 1 else "serial"
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        kwargs = {"n_jobs": n_jobs} if backend == "process" else {}
        instance = create(BACKEND_KIND, backend, **kwargs)
        if not isinstance(instance, ExecutionBackend):
            raise TypeError(
                f"backend {backend!r} resolved to {type(instance).__name__}, "
                f"which is not an ExecutionBackend"
            )
        return instance
    raise TypeError(
        f"backend must be a name, an ExecutionBackend or None, "
        f"got {backend!r}"
    )
