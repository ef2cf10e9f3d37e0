"""The experiment layer's workload names; the trace job lives in the engine.

:data:`APP_NAMES` is the paper's 2-D suite in Figures 4-7 order, and
:func:`app_names` lists every registered workload of one
dimensionality.  The workload scales, :func:`paper_config`,
:func:`shadow_shape` and :func:`workload_ndim` live in
:mod:`repro.engine.components`, and :func:`paper_trace` with
:func:`clear_trace_cache` in :mod:`repro.engine.executor`; this module
re-exports them for the experiment layer's callers.
"""

from __future__ import annotations

from ..apps import APPLICATIONS
from ..engine.components import paper_config, shadow_shape, workload_ndim
from ..engine.executor import clear_trace_cache, paper_trace

__all__ = [
    "APP_NAMES",
    "APP_NAMES_3D",
    "app_names",
    "paper_config",
    "paper_trace",
    "clear_trace_cache",
    "shadow_shape",
    "workload_ndim",
]

APP_NAMES: tuple[str, ...] = ("rm2d", "bl2d", "sc2d", "tp2d")
"""The paper's 2-D application suite, in Figures 4-7 order."""


def app_names(ndim: int | None = None) -> tuple[str, ...]:
    """Registered workload names (live; optionally one dimensionality).

    2-D keeps the paper's canonical Figures 4-7 order first, with any
    further registered 2-D kernels (runtime registrations) appended
    sorted; other dimensionalities are sorted throughout.
    """
    if ndim is None:
        dims = sorted(
            {
                dim
                for cls in APPLICATIONS.values()
                if (dim := getattr(cls, "ndim", None)) is not None
            }
        )
        out: list[str] = []
        for dim in dims:
            out.extend(app_names(dim))
        return tuple(out)
    registered = [
        name
        for name, cls in APPLICATIONS.items()
        if getattr(cls, "ndim", None) == ndim
    ]
    if ndim == 2:
        extras = sorted(name for name in registered if name not in APP_NAMES)
        return APP_NAMES + tuple(extras)
    return tuple(sorted(registered))


APP_NAMES_3D: tuple[str, ...] = app_names(3)
"""The 3-D workloads (snapshot of the kernel registry at import)."""
