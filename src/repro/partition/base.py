"""Partitioner interfaces and the distribution container.

A partitioner maps a :class:`~repro.hierarchy.GridHierarchy` onto ``P``
processors.  Distributions are represented as per-level *owner maps*
(:class:`~repro.geometry.OwnerMap`): sparse, patch-aligned corner arrays
with an owning rank per box.  Every downstream metric (load, ghost
communication, migration) is vectorized box calculus over those corner
arrays, so simulator cost scales with patch counts rather than with the
volume of the finest index space.

Every partitioner's output passes through :class:`PartitionResult`,
which coalesces each map (:meth:`OwnerMap.coalesced
<repro.geometry.OwnerMap.coalesced>`): same-rank boxes that abut over an
equal cross-section merge into one.  Partitioners cut their regions into
many more boxes than the regions need (unit-cell runs, overlay
fragments), and every metric kernel's cost grows with the box count;
the merged maps own exactly the same cells.

A dense owner raster of one level — the original representation — is
one :meth:`OwnerMap.rasterize <repro.geometry.OwnerMap.rasterize>` away;
the tests' dense oracle uses it, the hot path never does.

The P of the paper's PAC-triple is a :class:`Partitioner` instance; its
parameters are what the meta-partitioner tunes at run time.
"""

from __future__ import annotations

import abc

import numpy as np

from ..geometry import OwnerMap, box_corners, overlap_volume
from ..hierarchy import GridHierarchy

__all__ = ["PartitionResult", "Partitioner", "proc_loads"]


class PartitionResult:
    """A distribution of one hierarchy over ``nprocs`` ranks.

    Parameters
    ----------
    maps :
        One :class:`~repro.geometry.OwnerMap` per level; its shape equals
        the level's index space and its boxes cover exactly the refined
        cells, with ranks in ``[0, nprocs)``.  Stored coalesced.
    nprocs :
        Number of processors.
    partition_seconds :
        Modeled cost of computing this distribution (consumed by the
        dimension-II speed-vs-quality trade-off).
    """

    __slots__ = ("maps", "nprocs", "partition_seconds")

    def __init__(
        self,
        maps: tuple[OwnerMap, ...],
        nprocs: int = 1,
        partition_seconds: float = 0.0,
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        maps = tuple(maps)
        for m in maps:
            if not isinstance(m, OwnerMap):
                raise TypeError(
                    f"maps must contain OwnerMap instances, got {type(m)!r}"
                )
        self.maps = tuple(m.coalesced() for m in maps)
        self.nprocs = int(nprocs)
        self.partition_seconds = float(partition_seconds)

    @property
    def nlevels(self) -> int:
        """Number of level maps."""
        return len(self.maps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cells = sum(m.ncells for m in self.maps)
        return (
            f"PartitionResult({self.nlevels} levels, {cells} cells, "
            f"P={self.nprocs})"
        )

    # -- invariants --------------------------------------------------------
    def validate(self, hierarchy: GridHierarchy) -> None:
        """Check the distribution is complete and consistent.

        Every refined cell of every level must be owned by a valid rank
        and no unrefined cell may be owned.
        """
        if self.nlevels != hierarchy.nlevels:
            raise ValueError(
                f"{self.nlevels} rasters for {hierarchy.nlevels} levels"
            )
        for level in hierarchy:
            m = self.maps[level.index]
            expected_shape = hierarchy.level_domain(level.index).shape
            if m.shape != expected_shape:
                raise ValueError(
                    f"level {level.index} raster shape {m.shape} != "
                    f"domain {expected_shape}"
                )
            m.validate_disjoint()
            owned = m.ncells
            refined = level.ncells
            covered = overlap_volume(
                m.corners, box_corners(level.patches, hierarchy.ndim)
            )
            missing = refined - covered
            extra = owned - covered
            if missing or extra:
                raise ValueError(
                    f"level {level.index}: {missing} refined cells unowned, "
                    f"{extra} unrefined cells owned"
                )
            if m.nboxes:
                vals = m.ranks
                if vals.min() < 0 or vals.max() >= self.nprocs:
                    raise ValueError(
                        f"level {level.index}: owner ranks outside "
                        f"[0, {self.nprocs})"
                    )

    def loads(self, hierarchy: GridHierarchy) -> np.ndarray:
        """Per-rank computational load (cells x local steps per coarse step)."""
        return proc_loads(self, hierarchy)


def proc_loads(result: PartitionResult, hierarchy: GridHierarchy) -> np.ndarray:
    """Per-rank workload of a distribution: ``sum_l w_l * cells_l(rank)``."""
    loads = np.zeros(result.nprocs, dtype=np.float64)
    for level, m in zip(hierarchy, result.maps):
        if m.nboxes:
            counts = m.rank_cell_counts(result.nprocs)
            loads += counts * float(level.time_refinement_weight())
    return loads


class Partitioner(abc.ABC):
    """Base class of all partitioning strategies.

    Subclasses implement :meth:`partition`; ``previous`` carries the last
    distribution so incremental strategies (the sticky remapper) can
    minimize data migration.  Stateless strategies ignore it.
    """

    #: short identifier used in experiment tables
    name: str = "abstract"

    @abc.abstractmethod
    def partition(
        self,
        hierarchy: GridHierarchy,
        nprocs: int,
        previous: PartitionResult | None = None,
    ) -> PartitionResult:
        """Distribute ``hierarchy`` over ``nprocs`` ranks."""

    def cost_seconds(self, hierarchy: GridHierarchy, nprocs: int) -> float:
        """Modeled partitioning cost (dimension-II input).

        Default model: linear in total cells and patch count.  Subclasses
        scale it by their own complexity factor.
        """
        return 1e-7 * hierarchy.ncells + 1e-5 * hierarchy.npatches

    def describe(self) -> dict:
        """Parameter dictionary for experiment provenance."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()})"
