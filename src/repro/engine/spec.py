"""The experiment job model: :class:`RunSpec` and :class:`RunResult`.

A :class:`RunSpec` is a complete, declarative description of one unit of
experiment work — generate a workload trace, replay it through the
execution simulator under a partitioner, or sample the model penalties
along it.  Specs are pure data (app, scale, partitioner, params, machine,
seed, ...) so they can be hashed, shipped to worker processes, and used
as keys of the content-addressed result store: two invocations that
describe the same computation share the same stored artifact, across
figures, benchmarks, CLI calls and process boundaries.

The content hash is engineered for stability: the hashed payload is a
canonical JSON document (sorted keys, resolved machine parameters, the
full trace-generation config) so it does not depend on ``PYTHONHASHSEED``,
process, platform, or the *name* used to select a registry entry.  Bump
:data:`ENGINE_SCHEMA_VERSION` whenever the semantics of stored results
change (kernel physics, simulator cost model, array layout) — that
retires every stale cache entry at once.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

import numpy as np

from ..apps import APPLICATIONS
from ..simulator import MachineModel
from .components import (
    is_schedule,
    paper_config,
    resolve_machine,
    shadow_shape,
    validate_partitioner,
    validate_scale,
    workload_ndim,
)

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "RunSpec",
    "RunResult",
    "trace_spec",
    "sim_spec",
    "penalties_spec",
]

#: Version of the stored-result semantics; part of every content hash.
ENGINE_SCHEMA_VERSION = 1

#: The job kinds the executor understands.
KINDS = ("trace", "sim", "penalties")

Params = tuple[tuple[str, Any], ...]


def _accepts_seed(app: str) -> bool:
    """Whether the kernel factory has a ``seed`` parameter.

    Works for classes (the signature is ``__init__``'s) and plain
    factory callables alike.
    """
    try:
        signature = inspect.signature(APPLICATIONS[app])
    except (TypeError, ValueError):  # pragma: no cover - exotic factories
        return True  # cannot introspect: let the factory decide
    return "seed" in signature.parameters


def _normalize_pairs(value: Mapping | Params | None) -> Params:
    """Canonicalize a params mapping into a key-sorted tuple of pairs.

    The sort key is the parameter *name* only, so heterogeneous values
    (which Python refuses to order) can never raise ``TypeError`` during
    canonicalization.
    """
    if value is None:
        return ()
    if isinstance(value, MachineModel):
        value = asdict(value)
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [(k, v) for k, v in value]
    for k, _ in items:
        if not isinstance(k, str):
            raise TypeError(f"param names must be strings, got {k!r}")
    return tuple(sorted(items, key=lambda pair: pair[0]))


@dataclass(frozen=True)
class RunSpec:
    """One declarative unit of experiment work.

    Parameters
    ----------
    kind :
        ``"trace"`` (generate a workload trace), ``"sim"`` (replay the
        trace through the execution simulator) or ``"penalties"`` (sample
        the model penalties along the trace).
    app :
        Registered application kernel name (``repro.apps.APPLICATIONS``).
    scale :
        Registered workload scale (``"paper"``, ``"small"``, ...).
    nprocs :
        Simulated processor count (``sim`` / ``penalties``).
    partitioner :
        Registry name of the partitioner or dynamic schedule (``sim``).
    params :
        Partitioner constructor overrides, canonicalized to a sorted
        tuple of ``(name, value)`` pairs.
    machine :
        Machine-scenario registry name, or a sorted tuple of
        ``(field, value)`` pairs overriding :class:`MachineModel` fields.
        The content hash always uses the *resolved* parameters, so a
        named scenario and its explicit parameters hash identically.
    seed :
        Kernel seed override; ``None`` keeps each kernel's canonical
        (paper-deterministic) seed.
    ghost_width :
        Ghost-layer width of the simulated numerical scheme.
    migration_denominator :
        ``beta_m`` denominator convention (``penalties`` only).
    """

    kind: str
    app: str
    scale: str = "paper"
    nprocs: int = 16
    partitioner: str = "nature+fable"
    params: Params = ()
    machine: str | Params = "cluster-2003"
    seed: int | None = None
    ghost_width: int = 1
    migration_denominator: str = "current"
    ndim: int = field(default=0)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        ndim = workload_ndim(self.app)
        validate_scale(self.scale)
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.ghost_width < 0:
            raise ValueError("ghost_width must be >= 0")
        if self.migration_denominator not in ("current", "previous", "max"):
            raise ValueError(
                "migration_denominator must be 'current', 'previous' or 'max'"
            )
        object.__setattr__(self, "params", _normalize_pairs(self.params))
        if not isinstance(self.machine, str):
            object.__setattr__(self, "machine", _normalize_pairs(self.machine))
        if self.ndim not in (0, ndim):
            raise ValueError(
                f"ndim={self.ndim} contradicts {self.app!r} (ndim={ndim})"
            )
        object.__setattr__(self, "ndim", ndim)
        if self.seed is not None and not _accepts_seed(self.app):
            raise ValueError(
                f"{self.app!r} has no seed parameter; omit the seed override"
            )
        if self.kind == "sim":
            validate_partitioner(self.partitioner)
            if self.params and is_schedule(self.partitioner):
                raise ValueError(
                    f"{self.partitioner!r} is a dynamic schedule and takes "
                    f"no constructor params"
                )

    # -- dependencies ------------------------------------------------------
    def inputs(self) -> tuple["RunSpec", ...]:
        """Prerequisite specs this job consumes (the spec graph's edges).

        A ``sim`` or ``penalties`` job replays the workload trace of its
        ``(app, scale, seed)``; the trace spec — and therefore its
        content hash — is the explicit input edge the DAG executor
        resolves against the store before the job is scheduled.
        """
        if self.kind == "trace":
            return ()
        return (trace_spec(self.app, self.scale, seed=self.seed),)

    # -- hashing -----------------------------------------------------------
    def _machine_payload(self) -> dict:
        return asdict(resolve_machine(self.machine))

    def _trace_payload(self) -> dict:
        config = paper_config(self.scale, self.ndim)
        payload = asdict(config)
        payload["cluster"] = asdict(config.cluster)
        return {
            "schema": ENGINE_SCHEMA_VERSION,
            "kind": "trace",
            "app": self.app,
            "scale": self.scale,
            "seed": self.seed,
            "shadow_shape": list(shadow_shape(self.scale, self.ndim)),
            "config": payload,
        }

    def payload(self) -> dict:
        """The canonical (JSON-able) document the content hash covers."""
        doc = self._trace_payload()
        if self.kind == "trace":
            return doc
        common = {
            "schema": ENGINE_SCHEMA_VERSION,
            "kind": self.kind,
            "trace": doc,
            "nprocs": self.nprocs,
            "machine": self._machine_payload(),
            "ghost_width": self.ghost_width,
        }
        if self.kind == "sim":
            common["partitioner"] = self.partitioner
            common["params"] = [list(p) for p in self.params]
        else:
            common["migration_denominator"] = self.migration_denominator
        return common

    def key(self) -> str:
        """Stable content hash of the spec (sha256 hex digest)."""
        canonical = json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- transport ---------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form for shipping specs to worker processes."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["params"] = [list(p) for p in self.params]
        if not isinstance(self.machine, str):
            doc["machine"] = [list(p) for p in self.machine]
        return doc

    @staticmethod
    def from_json(doc: dict) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        doc = dict(doc)
        doc["params"] = tuple((k, v) for k, v in doc.get("params", ()))
        machine = doc.get("machine", "cluster-2003")
        if not isinstance(machine, str):
            doc["machine"] = tuple((k, v) for k, v in machine)
        return RunSpec(**doc)

    def label(self) -> str:
        """Compact human-readable identifier for tables and progress."""
        bits = [self.kind, self.app, self.scale]
        if self.kind == "sim":
            bits.append(self.partitioner)
        if self.kind != "trace":
            bits.append(f"P{self.nprocs}")
            if isinstance(self.machine, str) and self.machine != "cluster-2003":
                bits.append(self.machine)
        return ":".join(bits)


@dataclass(frozen=True)
class RunResult:
    """The stored outcome of one :class:`RunSpec`.

    ``meta`` is the JSON-able summary (descriptors plus scalar
    aggregates); ``arrays`` holds the per-regrid-step series exactly as
    computed (dtype-preserving — this is what "bit-identical" means for
    parallel vs. serial execution).
    """

    spec: RunSpec
    key: str
    meta: dict
    arrays: dict[str, np.ndarray]

    def series(self, name: str) -> np.ndarray:
        """One stored column, e.g. ``series("relative_migration")``."""
        return self.arrays[name]


def trace_spec(app: str, scale: str = "paper", *, seed: int | None = None) -> RunSpec:
    """Spec for generating (and caching) one canonical workload trace."""
    return RunSpec(kind="trace", app=app, scale=scale, seed=seed)


def sim_spec(
    app: str,
    scale: str = "paper",
    *,
    nprocs: int = 16,
    partitioner: str = "nature+fable",
    params: Mapping | Params | None = None,
    machine: str | Mapping | Params | MachineModel = "cluster-2003",
    seed: int | None = None,
    ghost_width: int = 1,
) -> RunSpec:
    """Spec for one simulator replay (static partitioner or schedule)."""
    if not isinstance(machine, str):
        machine = _normalize_pairs(machine)
    return RunSpec(
        kind="sim",
        app=app,
        scale=scale,
        nprocs=nprocs,
        partitioner=partitioner,
        params=_normalize_pairs(params),
        machine=machine,
        seed=seed,
        ghost_width=ghost_width,
    )


def penalties_spec(
    app: str,
    scale: str = "paper",
    *,
    nprocs: int = 16,
    machine: str | Mapping | Params | MachineModel = "cluster-2003",
    migration_denominator: str = "current",
    seed: int | None = None,
    ghost_width: int = 1,
) -> RunSpec:
    """Spec for sampling the model penalties along one trace."""
    if not isinstance(machine, str):
        machine = _normalize_pairs(machine)
    return RunSpec(
        kind="penalties",
        app=app,
        scale=scale,
        nprocs=nprocs,
        machine=machine,
        seed=seed,
        ghost_width=ghost_width,
        migration_denominator=migration_denominator,
    )
