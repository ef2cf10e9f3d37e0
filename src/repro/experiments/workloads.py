"""Canonical experiment workloads: the paper's traces plus 3-D, cached.

All experiments run off the same deterministic traces (seeded kernels, see
:mod:`repro.apps`).  Three scales are provided:

* ``"paper"`` — the paper's setup: 5 levels of factor-2 refinement,
  regrid every 4 (section 5.1.1), in 2-D *and* 3-D.  The 3-D variant is
  paper-faithful (16^3 base, 5 levels — a 256^3 finest index space):
  feasible because distributions are sparse owner maps, not dense
  full-domain rasters;
* ``"deep"`` — the 3-D scaling-study workload: 32^3 base, 5 levels of
  factor-2 refinement (a 512^3 finest index space, ~134M fine cells).
  A single dense owner raster of the finest level alone would be half a
  gigabyte; the sparse simulator replays it in ordinary memory;
* ``"ultra"`` — the pair-kernel stress workload: 64^3 base, 5 levels (a
  1024^3 finest index space, ~1.07B fine cells).  The partitioners'
  own queries see uncoalesced distributions of ~60k boxes, whose
  quadratic pair products (billions of pairs) are out of reach for the
  brute-force broadcast under CI memory/time limits; the grid-bucket
  candidates keep them near-linear;
* ``"small"`` — a fast variant for unit tests and CI benchmarks.

Traces live in the engine's content-addressed store
(``REPRO_CACHE_DIR``, default ``~/.cache/repro``), keyed by the full
generation config — so figures, ablations, benchmarks and CLI sweeps
regenerate a given trace exactly once per machine.  The store's
per-process read cache is the in-process memo: it holds the traces this
process loaded or published, within its entry budget.
:func:`clear_trace_cache` empties it, and the store's trace entries too.
"""

from __future__ import annotations

from ..apps import APPLICATIONS, TraceGenConfig, generate_trace, make_application
from ..registry import register, registry
from ..trace import Trace

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


# -- workload scales (registered components, extensible like the rest) -----

@register(
    "scale",
    "paper",
    description="the paper's setup: 5 levels / 100 steps (3-D: 16^3, 5 levels)",
)
def _paper_scale(ndim: int = 2) -> TraceGenConfig:
    if ndim == 2:
        return TraceGenConfig(
            base_shape=(64, 64),
            max_levels=5,
            nsteps=100,
            regrid_interval=4,
        )
    if ndim == 3:
        # Paper-faithful depth (5 levels of factor-2 refinement).  The
        # historical 4-level cap existed "so paper-scale rasters stay in
        # memory"; sparse owner maps removed that constraint.
        return TraceGenConfig(
            base_shape=(16, 16, 16),
            max_levels=5,
            nsteps=40,
            regrid_interval=4,
        )
    raise ValueError(f"no canonical workload config for ndim={ndim}")


@register(
    "scale",
    "deep",
    description="3-D scaling study: 32^3 base, 5 levels (512^3 finest space)",
)
def _deep_scale(ndim: int = 3) -> TraceGenConfig:
    if ndim != 3:
        raise ValueError(
            f"the 'deep' scale is the 3-D scaling-study workload; "
            f"ndim={ndim} has no deep config"
        )
    return TraceGenConfig(
        base_shape=(32, 32, 32),
        max_levels=5,
        nsteps=40,
        regrid_interval=4,
    )


@register(
    "scale",
    "ultra",
    description="3-D pair-kernel stress: 64^3 base, 5 levels (1024^3 finest space)",
)
def _ultra_scale(ndim: int = 3) -> TraceGenConfig:
    if ndim != 3:
        raise ValueError(
            f"the 'ultra' scale is the 3-D pair-kernel stress workload; "
            f"ndim={ndim} has no ultra config"
        )
    return TraceGenConfig(
        base_shape=(64, 64, 64),
        max_levels=5,
        nsteps=20,
        regrid_interval=4,
    )


@register(
    "scale",
    "small",
    description="fast variant for unit tests and CI benchmarks",
)
def _small_scale(ndim: int = 2) -> TraceGenConfig:
    if ndim == 2:
        return TraceGenConfig(
            base_shape=(16, 16),
            max_levels=3,
            nsteps=20,
            regrid_interval=4,
        )
    if ndim == 3:
        return TraceGenConfig(
            base_shape=(8, 8, 8),
            max_levels=3,
            nsteps=12,
            regrid_interval=4,
        )
    raise ValueError(f"no canonical workload config for ndim={ndim}")


def _check_scale(scale: str) -> None:
    scales = registry("scale")
    if scale not in scales:
        raise ValueError(
            f"unknown workload scale {scale!r}; choose from {tuple(scales)}"
        )


def paper_config(scale: str = "paper", ndim: int = 2) -> TraceGenConfig:
    """Trace-generation parameters at the requested scale and dimension."""
    # create() validates the name itself (same message as _check_scale).
    return registry("scale").create(scale, ndim=ndim)


#: Shadow-grid cells per base-grid cell along each axis (default).
SHADOW_FACTOR = 4

#: Per-scale shadow-factor overrides.  ``ultra``'s 64^3 base grid at the
#: default factor would mean 256^3 shadow arrays — the trace generator's
#: kernels keep ~7 such float64 fields alive (~940 MB), blowing the 2 GB
#: CI budget on state that only *drives* refinement flags.  Factor 2
#: (128^3, ~117 MB) preserves plenty of feature resolution.  Existing
#: scales are untouched, so their content hashes are stable (the shadow
#: shape is embedded explicitly in every trace spec payload).
_SHADOW_FACTOR_OVERRIDES = {"ultra": 2}


def shadow_shape(scale: str, ndim: int) -> tuple[int, ...]:
    """Shadow-grid resolution of the canonical workloads.

    Derived from the scale's base grid (``SHADOW_FACTOR`` x per axis,
    minus per-scale overrides) so scales registered through the
    component registry get a consistent kernel resolution instead of
    silently falling back to the built-in small one.  For the built-in
    scales this reproduces the historical values exactly (2-D: 256^2
    paper / 64^2 small; 3-D: 64^3 / 32^3), keeping every content hash
    stable.
    """
    config = paper_config(scale, ndim)
    factor = _SHADOW_FACTOR_OVERRIDES.get(scale, SHADOW_FACTOR)
    return tuple(factor * extent for extent in config.base_shape)


def workload_ndim(name: str) -> int:
    """Spatial dimensionality of a registered workload (from its kernel)."""
    try:
        factory = APPLICATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown application {name!r}; choose from {tuple(sorted(APPLICATIONS))}"
        ) from None
    ndim = getattr(factory, "ndim", None)
    if ndim is None:
        raise ValueError(
            f"application {name!r}: the registered factory must expose an "
            f"'ndim' attribute (ShadowApplication subclasses do)"
        )
    return int(ndim)


def _generate(name: str, scale: str, seed: int | None) -> Trace:
    ndim = workload_ndim(name)
    kwargs = {"shape": shadow_shape(scale, ndim)}
    if seed is not None:
        from ..engine.spec import _accepts_seed

        if not _accepts_seed(name):
            raise ValueError(
                f"{name!r} has no seed parameter; omit the seed override"
            )
        kwargs["seed"] = seed
    app = make_application(name, **kwargs)
    return generate_trace(app, paper_config(scale, ndim))


def paper_trace(
    name: str,
    scale: str = "paper",
    seed: int | None = None,
    store=None,
) -> Trace:
    """The deterministic trace of one application at one scale.

    Content-addressed on disk and memoized by the store's read cache;
    ``store`` selects a specific
    :class:`~repro.engine.store.ResultStore` (default:
    ``REPRO_CACHE_DIR`` / ``~/.cache/repro``).
    """
    _check_scale(scale)
    workload_ndim(name)  # raises for unknown apps before touching the store
    # Lazy engine import: repro.engine reaches back into this module at
    # call time, so neither side may import the other at module scope.
    from ..engine.executor import trace_meta
    from ..engine.spec import trace_spec
    from ..engine.store import default_store

    if store is None:
        store = default_store()
    spec = trace_spec(name, scale, seed=seed)
    trace = store.get_trace(spec)
    if trace is None:
        trace = _generate(name, scale, seed)
        store.put_trace(spec, trace, trace_meta(trace))
    return trace


def clear_trace_cache(store=None, *, memory_only: bool = False) -> int:
    """Drop cached traces; returns the number of disk entries removed.

    Clears the store's per-process read cache always, and the on-disk
    trace entries of ``store`` (default store when omitted) unless
    ``memory_only`` is set.
    """
    from ..engine.store import clear_read_cache, default_store

    clear_read_cache()
    if memory_only:
        return 0
    if store is None:
        store = default_store()
    return store.clear(kind="trace")
