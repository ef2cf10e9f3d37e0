"""Pluggable execution backends for draining spec plans.

Two built-ins, both registered under the component kind ``"backend"``
and both publishing through the content-addressed store (which is what
makes them bit-identical to each other):

* ``serial`` — everything in-process, one job at a time (the historical
  ``n_jobs=1`` path);
* ``process`` — trace-aware shards over a local
  :class:`~concurrent.futures.ProcessPoolExecutor` (the historical
  ``n_jobs>1`` path).

Every run that raises leaves a failure record in the store's telemetry
directory, whichever backend ran it (see
:func:`repro.telemetry.run_scope`).

Select one through :func:`~repro.engine.executor.run_specs`
(``backend="serial" | "process"`` or an instance), the CLI
(``repro sweep --backend process --n-jobs 4``), or build your own by
subclassing :class:`ExecutionBackend` and registering it::

    from repro.engine.backends import ExecutionBackend
    from repro.registry import register

    @register("backend", "my-scheduler")
    class MyBackend(ExecutionBackend):
        def run_layer(self, depth, specs, store, *, force, say, verbose):
            ...
"""

from .base import (
    BACKEND_KIND,
    ExecutionBackend,
    backend_names,
    layer_status,
    resolve_backend,
    verify_layer_inputs,
)
# Import order fixes registration order (serial, process) — what
# BACKEND_NAMES and `repro describe --kind backend` display.
from .serial import SerialBackend
from .process import ProcessBackend

__all__ = [
    "BACKEND_KIND",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "backend_names",
    "layer_status",
    "resolve_backend",
    "verify_layer_inputs",
]
