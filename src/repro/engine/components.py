"""Built-in engine components and the name-resolution helpers.

Specs reference components *by name* so they stay plain hashable data;
this module registers every built-in partitioner, dynamic schedule,
machine scenario and workload scale with the unified
:mod:`repro.registry` and owns the helpers the engine resolves those
names through, the trace job's included: a scale's generation config
(:func:`paper_config`), its shadow grid (:func:`shadow_shape`) and an
application's dimensionality (:func:`workload_ndim`).  The experiment
layer reuses the same registries (``static_partitioner_suite`` /
``machine_scenarios`` delegate here) so the CLI, the figures and the
ablations all agree on what ``"nature+fable"`` or ``"net-starved"``
means — and a component registered at runtime (the ``@register``
decorator) is immediately sweepable by name.

The canonical surface is the registry itself::

    from repro.engine import create, registry, describe

    create("partitioner", "domain-sfc-hilbert", unit_size=4)
    tuple(registry("machine"))          # live scenario names
    describe("partitioner")             # parameter schemas for all of them
"""

from __future__ import annotations

from typing import Mapping

from ..apps import APPLICATIONS, TraceGenConfig
from ..meta import ArmadaClassifier, MetaScheduler
from ..model import StateSampler
from ..partition import (
    DomainSfcPartitioner,
    NatureFableParams,
    NaturePlusFable,
    PatchBasedPartitioner,
    Partitioner,
    StickyRepartitioner,
)
from ..registry import create, describe, register, registry
from ..simulator import MachineModel

__all__ = [
    "STATIC_SUITE",
    "create",
    "describe",
    "register",
    "registry",
    "resolve_machine",
    "is_schedule",
    "paper_config",
    "shadow_shape",
    "validate_partitioner",
    "validate_scale",
    "workload_ndim",
]


# -- built-in partitioners -------------------------------------------------

@register(
    "partitioner",
    "nature+fable",
    description="the paper's hybrid Hue/Core bi-level partitioner",
    schema_from=NatureFableParams,
)
def _nature_fable(**params) -> Partitioner:
    return NaturePlusFable(NatureFableParams(**params) if params else None)


@register(
    "partitioner",
    "nature+fable-balance",
    description="Nature+Fable steered to its load-balance-focused setup",
    schema_from=NatureFableParams,
)
def _nature_fable_balance(**params) -> Partitioner:
    return NaturePlusFable(NatureFableParams(**params).balance_focused())


@register(
    "partitioner",
    "domain-sfc-hilbert",
    description="strictly domain-based decomposition along a Hilbert curve",
    schema_from=DomainSfcPartitioner,
    schema_exclude=("curve",),
)
def _domain_sfc_hilbert(**params) -> Partitioner:
    return DomainSfcPartitioner(curve="hilbert", **params)


@register(
    "partitioner",
    "domain-sfc-morton",
    description="strictly domain-based decomposition along a Morton curve",
    schema_from=DomainSfcPartitioner,
    schema_exclude=("curve",),
)
def _domain_sfc_morton(**params) -> Partitioner:
    return DomainSfcPartitioner(curve="morton", **params)


register(
    "partitioner",
    "patch-lpt",
    PatchBasedPartitioner,
    description="per-level patch distribution (LPT / round-robin)",
)


@register(
    "partitioner",
    "sticky-sfc",
    description="migration-minimizing sticky wrapper around domain-SFC",
    schema_from=DomainSfcPartitioner,
)
def _sticky_sfc(**params) -> Partitioner:
    return StickyRepartitioner(DomainSfcPartitioner(**params))


#: The paper's static comparison suite, in its canonical order.
STATIC_SUITE: tuple[str, ...] = (
    "nature+fable",
    "nature+fable-balance",
    "domain-sfc-hilbert",
    "patch-lpt",
    "sticky-sfc",
)


# -- dynamic per-step schedules (simulated via run_scheduled) --------------

@register(
    "schedule",
    "armada-octant",
    description="ArMADA discrete octant-table baseline",
)
def _armada_octant(machine: MachineModel, nprocs: int) -> ArmadaClassifier:
    return ArmadaClassifier()


@register(
    "schedule",
    "meta-partitioner",
    description="continuous meta-partitioner (dynamic PAC selection)",
)
def _meta_partitioner(machine: MachineModel, nprocs: int) -> MetaScheduler:
    return MetaScheduler(sampler=StateSampler(machine=machine, nprocs=nprocs))


# -- machine scenarios of the dynamic-PAC experiment -----------------------

@register(
    "machine",
    "net-starved",
    description="bandwidth-starved cluster (50 MB/s interconnect)",
)
def _net_starved() -> MachineModel:
    return MachineModel(bandwidth_bytes_per_s=5.0e7)


register(
    "machine",
    "cluster-2003",
    MachineModel,
    description="the 2003-era baseline cluster (Myrinet-class network)",
)


@register(
    "machine",
    "fast-network",
    description="compute-bound scenario: 40x the baseline bandwidth",
)
def _fast_network() -> MachineModel:
    return MachineModel().faster_network(40)


# -- workload scales of the trace job --------------------------------------
#
# ``paper`` is the paper's setup (section 5.1.1), in 2-D and 3-D;
# ``deep`` (a 512^3 finest index space) and ``ultra`` (1024^3) are the
# 3-D scaling-study and pair-kernel stress workloads, in reach because
# distributions are sparse owner maps; ``small`` is the fast variant for
# unit tests and CI benchmarks.

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
        # Paper-faithful depth (5 levels of factor-2 refinement): sparse
        # owner maps keep its distributions in memory.
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


# -- resolution helpers ----------------------------------------------------

def is_schedule(name: str) -> bool:
    """Whether ``name`` denotes a dynamic schedule rather than a static P."""
    return name in registry("schedule")


def validate_partitioner(name: str) -> None:
    """Raise ``ValueError`` for names neither static nor schedulable."""
    partitioners, schedules = registry("partitioner"), registry("schedule")
    if name not in partitioners and name not in schedules:
        raise ValueError(
            f"unknown partitioner {name!r}; choose from "
            f"{tuple(partitioners) + tuple(schedules)}"
        )


def validate_scale(scale: str) -> None:
    """Raise ``ValueError`` for unregistered workload scales."""
    scales = registry("scale")
    if scale not in scales:
        raise ValueError(
            f"unknown workload scale {scale!r}; choose from {tuple(scales)}"
        )


def paper_config(scale: str = "paper", ndim: int = 2) -> TraceGenConfig:
    """Trace-generation parameters at the requested scale and dimension."""
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


def resolve_machine(
    machine: str | Mapping | tuple | MachineModel,
) -> MachineModel:
    """Resolve a scenario name, field overrides or model to a model.

    Accepts a registered scenario name, a mapping / pair-tuple of
    :class:`MachineModel` field overrides, or an already-built model
    (returned as is).
    """
    if isinstance(machine, MachineModel):
        return machine
    if isinstance(machine, str):
        return create("machine", machine)
    return MachineModel(**dict(machine))
