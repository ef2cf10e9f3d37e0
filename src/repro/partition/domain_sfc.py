"""Strictly domain-based SFC partitioner.

Domain-based partitioners (section 2.2) partition the *physical domain*
rather than the grids: the base grid is decomposed into atomic units, each
unit carries the full workload of the column of refined cells above it,
and units are assigned whole — so all levels overlying a base-grid region
land on the same rank.  This eliminates inter-level communication and
exposes all parallelism, at the cost of intractable load imbalance for
deep, localized hierarchies ("bad cuts").

Implementation: atomic units are ``unit_size``-sided blocks of base cells
(squares in 2-D, cubes in 3-D, ...) ordered along a space-filling curve;
unit weights are the exact column workloads
(:meth:`GridHierarchy.column_workloads
<repro.hierarchy.GridHierarchy.column_workloads>`, accumulated *sparsely*
from the patch boxes — no fine-level rasters are ever materialized, so
paper-scale 3-D hierarchies stay cheap); chains-on-chains splits the 1-D
sequence, :func:`~repro.geometry.cell_boxes` merges same-rank units
into boxes, and the per-level owner maps are those boxes refined to each
level and clipped against its patches.
The unit-vs-patch clipping runs through
:func:`~repro.geometry.pair_intersections`, whose grid-bucket candidates
keep the overlap query near-linear in blocks + patches at
``deep``/``ultra`` scale.
"""

from __future__ import annotations

import numpy as np

from ..geometry import OwnerMap, box_corners, cell_boxes, pair_intersections
from ..hierarchy import GridHierarchy
from ..sfc import sfc_order_nd
from .base import PartitionResult, Partitioner
from .chains import exact_chains, greedy_chains, segments_to_ranks

__all__ = ["DomainSfcPartitioner"]


class DomainSfcPartitioner(Partitioner):
    """Space-filling-curve domain decomposition.

    Parameters
    ----------
    curve :
        ``"hilbert"`` (fully ordered — the expensive, high-locality option
        the paper mentions under trade-off 3) or ``"morton"`` (partially
        ordered, cheaper).
    unit_size :
        Atomic-unit side length in base cells.  Small units improve load
        balance; large units improve locality (the Nature+Fable "atomic
        unit" steering parameter).
    exact :
        Use the optimal chains-on-chains solver instead of the greedy one
        (the speed-vs-quality knob of dimension II).
    """

    name = "domain-sfc"

    def __init__(
        self, curve: str = "hilbert", unit_size: int = 2, exact: bool = False
    ) -> None:
        if curve not in ("hilbert", "morton"):
            raise ValueError("curve must be 'hilbert' or 'morton'")
        if unit_size < 1:
            raise ValueError("unit_size must be >= 1")
        self.curve = curve
        self.unit_size = unit_size
        self.exact = exact

    def describe(self) -> dict:
        return {
            "name": self.name,
            "curve": self.curve,
            "unit_size": self.unit_size,
            "exact": self.exact,
        }

    def cost_seconds(self, hierarchy: GridHierarchy, nprocs: int) -> float:
        base = super().cost_seconds(hierarchy, nprocs)
        factor = 2.5 if self.curve == "hilbert" else 1.0
        if self.exact:
            factor *= 4.0
        return base * factor

    def partition(
        self,
        hierarchy: GridHierarchy,
        nprocs: int,
        previous: PartitionResult | None = None,
    ) -> PartitionResult:
        """Assign atomic-unit columns to ranks along the curve."""
        weights = hierarchy.column_workloads(self.unit_size)
        unit_shape = weights.shape
        coords = [c.ravel() for c in np.indices(unit_shape)]
        order_bits = max(1, int(np.ceil(np.log2(max(unit_shape)))))
        order = sfc_order_nd(coords, curve=self.curve, order=order_bits)
        seq_weights = weights.ravel()[order]
        solver = exact_chains if self.exact else greedy_chains
        bounds = solver(seq_weights, nprocs)
        seq_ranks = segments_to_ranks(bounds, seq_weights.size)
        unit_owner = np.empty(weights.size, dtype=np.int32)
        unit_owner[order] = seq_ranks
        # Sparse expansion: unit blocks -> rank boxes -> clip per level.
        unit_corners, unit_ranks = cell_boxes(
            np.stack(coords, axis=1), unit_owner
        )
        maps = []
        for level in hierarchy:
            scale = self.unit_size * hierarchy.cumulative_ratio(level.index)
            patch_corners = box_corners(
                level.patches.boxes, hierarchy.ndim
            )
            corners, ai, _ = pair_intersections(
                unit_corners * scale, patch_corners
            )
            maps.append(
                OwnerMap(
                    hierarchy.level_domain(level.index).shape,
                    corners,
                    unit_ranks[ai],
                )
            )
        return PartitionResult(
            maps=tuple(maps),
            nprocs=nprocs,
            partition_seconds=self.cost_seconds(hierarchy, nprocs),
        )
