"""Built-in engine components and the name-resolution helpers.

Specs reference components *by name* so they stay plain hashable data;
this module registers every built-in partitioner, dynamic schedule and
machine scenario with the unified :mod:`repro.registry` and owns the
helpers the engine resolves those names through.  The experiment layer
reuses the same registries (``static_partitioner_suite`` /
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
    "validate_partitioner",
    "validate_scale",
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
    # Lazy: the built-in scales register when the workload layer imports,
    # and the workload layer owns the single validator.
    from ..experiments.workloads import _check_scale

    _check_scale(scale)


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
