"""Nature+Fable: the hybrid partitioner used in the paper's validation.

Nature+Fable (Natural Regions + Fractional blocking and bi-level
partitioning, section 2.2) is the Uppsala/Rutgers hybrid that the paper
partitions all four traces with ("static 'default' values", section
5.1.2).  Its structure, reproduced here:

1. **Hue/Core separation** (strictly domain-based): the base grid is split
   into homogeneous unrefined regions (*Hues*, level-0 cells only) and
   complex refined regions (*Cores*, a base-grid portion plus all overlaid
   refined grids).  Cores are the face-connected components of the
   refined footprint on the base grid, labelled by a union-find over
   its runs of cells and numbered in the C order of their first cell
   (:func:`_label_cores`); that order fixes the rank groups of step 2.
2. **Meta-partitioning**: each Core (and the Hue remainder) becomes a
   meta-partition mapped to a contiguous group of processors sized
   proportionally to its workload.
3. **Bi-level clustering**: inside a Core, refinement levels are clustered
   pairwise into bi-levels ``(0,1), (2,3), ...``; both levels of a
   bi-level share one decomposition, eliminating intra-bi-level parent-
   child communication.
4. **Expert blocking**: each bi-level region is decomposed into atomic
   blocks, ordered along an SFC ("partially ordered", i.e. Morton, per the
   paper's remark), and assigned to the group's ranks; the same blocking
   engine partitions the Hues.

Steering parameters (section 4, "to focus on load balance ... choose a
small atomic unit, select a large Q, choose fractional blocking"):
``atomic_unit`` (block side), ``q`` (chunks per rank in the coarse
assignment; ``q > 1`` trades locality for balance via LPT over chunks) and
``fractional_blocking`` (cell-granularity boundary blocks).

Representation: only base-grid arrays are ever materialized.  Hues and
Cores are weighed by the base cells' column workloads
(:meth:`GridHierarchy.column_workloads
<repro.hierarchy.GridHierarchy.column_workloads>`).  Bi-level block
weights are one :func:`~repro.geometry.block_overlaps` call over the
member levels' in-Core patch pieces (exact integer-valued block-overlap
volumes, identical to the dense ``block_sum`` of the level masks in
``tests/dense_oracle.py``) on a unit grid *windowed to the Core's
bounding box*, unit assignment enumerates only the non-empty
units sparsely (no ``np.indices`` raster over the unit grid — the last
volume-proportional allocation), and the per-level output is a sparse
:class:`~repro.geometry.OwnerMap` — the unit blocks clipped against the
level's patches inside the Core — so deep 3-D hierarchies never allocate
a fine-level raster.  The Hue's assigned cells, each Core's mask and
each bi-level's assigned units become boxes through
:func:`~repro.geometry.cell_boxes`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..geometry import (
    OwnerMap,
    block_overlaps,
    box_corners,
    cell_boxes,
    pair_intersections,
)
from ..hierarchy import GridHierarchy
from ..sfc import sfc_order_nd
from .base import PartitionResult, Partitioner
from .chains import greedy_chains, segments_to_ranks

__all__ = ["NatureFableParams", "NaturePlusFable"]


@dataclass(frozen=True, slots=True)
class NatureFableParams:
    """Steering parameters of Nature+Fable (the paper's defaults)."""

    atomic_unit: int = 4
    q: int = 1
    fractional_blocking: bool = False
    curve: str = "morton"
    bilevel_size: int = 2

    def __post_init__(self) -> None:
        if self.atomic_unit < 1:
            raise ValueError("atomic_unit must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.curve not in ("morton", "hilbert"):
            raise ValueError("curve must be 'morton' or 'hilbert'")
        if self.bilevel_size < 1:
            raise ValueError("bilevel_size must be >= 1")

    def balance_focused(self) -> "NatureFableParams":
        """The load-balance-focused configuration of section 4."""
        return NatureFableParams(
            atomic_unit=1,
            q=max(2, self.q),
            fractional_blocking=True,
            curve=self.curve,
            bilevel_size=self.bilevel_size,
        )

    def locality_focused(self) -> "NatureFableParams":
        """The communication-focused configuration (large blocks, contiguous)."""
        return NatureFableParams(
            atomic_unit=max(4, self.atomic_unit),
            q=1,
            fractional_blocking=False,
            curve="hilbert",
            bilevel_size=self.bilevel_size,
        )


def _assign_sequence(
    weights: np.ndarray, ranks: np.ndarray, q: int
) -> np.ndarray:
    """Assign an SFC-ordered weight sequence to the given ranks.

    ``q == 1``: contiguous chains (maximum locality).  ``q > 1``: the
    sequence is cut into ``len(ranks) * q`` equal-weight chunks which are
    then LPT-balanced over the ranks — better balance, more surface.
    Returns a per-element rank array.
    """
    g = ranks.size
    if g == 1:
        return np.full(weights.size, ranks[0], dtype=np.int32)
    if q == 1:
        bounds = greedy_chains(weights, g)
        local = segments_to_ranks(bounds, weights.size)
        return ranks[local].astype(np.int32)
    nchunks = g * q
    bounds = greedy_chains(weights, nchunks)
    chunk_weights = np.add.reduceat(
        np.concatenate((weights, [0.0])), np.minimum(bounds[:-1], weights.size)
    )
    chunk_weights[bounds[:-1] == bounds[1:]] = 0.0
    heap = [(0.0, int(r)) for r in ranks]
    heapq.heapify(heap)
    order = np.argsort(-chunk_weights, kind="stable")
    chunk_rank = np.empty(nchunks, dtype=np.int32)
    for c in order:
        load, r = heapq.heappop(heap)
        chunk_rank[c] = r
        heapq.heappush(heap, (load + float(chunk_weights[c]), r))
    out = np.empty(weights.size, dtype=np.int32)
    for c in range(nchunks):
        out[bounds[c] : bounds[c + 1]] = chunk_rank[c]
    return out


def _label_cores(
    refined: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Cores of ``refined`` and their workloads: ``(labels, core_work)``.

    A Core is a face-connected component of ``refined``.  ``labels``
    numbers the Cores ``1..k`` in the C order of their first cell (0 off
    the mask), which is ``scipy.ndimage.label``'s numbering, and
    ``core_work[c]`` sums ``work`` over Core ``c + 1``: ``work`` is
    integer-valued, so the sums are exact in any order.  Cells join into
    runs along the last axis; a union-find over the runs then hooks, for
    every pair of runs that touch across another axis, the larger root
    onto the smaller and jumps pointers until each touching pair shares
    a root.  A root is then its Core's first run, so numbering the roots
    in order numbers the Cores.
    """
    if not refined.any():
        return np.zeros(refined.shape, dtype=np.intp), np.zeros(0)
    row = (slice(None),) * (refined.ndim - 1)
    starts = refined.copy()
    starts[row + (slice(1, None),)] &= ~refined[row + (slice(None, -1),)]
    run = np.cumsum(starts).reshape(refined.shape) - 1
    parent = np.arange(int(run.flat[-1]) + 1)
    below, above = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for axis in range(refined.ndim - 1):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        touch = refined[lo] & refined[hi]
        below.append(run[lo][touch])
        above.append(run[hi][touch])
    u, v = np.concatenate(below), np.concatenate(above)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            break
        u, v, pu, pv = u[split], v[split], pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        grand = parent[parent]
        while (grand != parent).any():
            parent, grand = grand, grand[grand]
    number = np.cumsum(parent == np.arange(parent.size))
    labels = np.where(refined, number[parent][run], 0)
    k = int(number[-1])
    return labels, np.bincount(labels.ravel(), work.ravel(), k + 1)[1:]


class NaturePlusFable(Partitioner):
    """The hybrid Hue/Core bi-level partitioner (see module docstring)."""

    name = "nature+fable"

    def __init__(self, params: NatureFableParams | None = None) -> None:
        self.params = params or NatureFableParams()

    def describe(self) -> dict:
        p = self.params
        return {
            "name": self.name,
            "atomic_unit": p.atomic_unit,
            "q": p.q,
            "fractional_blocking": p.fractional_blocking,
            "curve": p.curve,
            "bilevel_size": p.bilevel_size,
        }

    def cost_seconds(self, hierarchy: GridHierarchy, nprocs: int) -> float:
        base = super().cost_seconds(hierarchy, nprocs)
        factor = 1.5 + 0.5 * self.params.q
        if self.params.fractional_blocking:
            factor += 0.5
        if self.params.curve == "hilbert":
            factor += 1.0
        return base * factor

    # ------------------------------------------------------------------
    def partition(
        self,
        hierarchy: GridHierarchy,
        nprocs: int,
        previous: PartitionResult | None = None,
    ) -> PartitionResult:
        ndim = hierarchy.ndim
        # Per-level accumulators of (corner rows, ranks) assignment pieces.
        parts: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(hierarchy.nlevels)
        ]
        # --- 1. Hue/Core separation -----------------------------------
        refined = hierarchy.refined_mask_on_base()
        hue_mask = ~refined
        # Workloads: column workload of each base cell.
        col_work = hierarchy.column_workloads()
        labels, core_work = _label_cores(refined, col_work)
        ncores = core_work.size
        hue_work = float(col_work[hue_mask].sum())
        # --- 2. Meta-partitioning: contiguous rank groups --------------
        regions = [("hue", hue_mask, hue_work)] if hue_mask.any() else []
        for c in range(ncores):
            regions.append((f"core{c}", labels == c + 1, float(core_work[c])))
        groups = self._allocate_groups([w for _, _, w in regions], nprocs)
        # --- 3+4. Blocking within each meta-partition -------------------
        for (kind, mask, _), ranks in zip(regions, groups):
            if kind == "hue":
                self._block_hue(mask, ranks, parts)
            else:
                self._block_core(hierarchy, mask, ranks, parts)
        maps = []
        for l in range(hierarchy.nlevels):
            shape = hierarchy.level_domain(l).shape
            if parts[l]:
                corners = np.concatenate([c for c, _ in parts[l]])
                ranks_arr = np.concatenate([r for _, r in parts[l]])
                maps.append(OwnerMap(shape, corners, ranks_arr))
            else:
                maps.append(OwnerMap.empty(shape))
        return PartitionResult(
            maps=tuple(maps),
            nprocs=nprocs,
            partition_seconds=self.cost_seconds(hierarchy, nprocs),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _allocate_groups(workloads: list[float], nprocs: int) -> list[np.ndarray]:
        """Contiguous rank ranges proportional to workload (>= 1 rank each).

        Group boundaries are the *rounded cumulative* workload fractions,
        so a small drift in one region's workload moves at most the
        adjacent boundary by one rank — keeping rank assignment stable
        across regrids (wholesale group reshuffles would show up as pure
        partitioner-noise data migration).
        """
        n = len(workloads)
        if n == 0:
            return []
        w = np.asarray(workloads, dtype=np.float64)
        w = np.maximum(w, 1e-12)
        if n >= nprocs:
            # More meta-partitions than ranks: round-robin whole groups.
            return [np.array([i % nprocs]) for i in range(n)]
        cum = np.concatenate(([0.0], np.cumsum(w))) / w.sum()
        bounds = np.rint(cum * nprocs).astype(np.int64)
        bounds[0], bounds[-1] = 0, nprocs
        # Guarantee non-empty groups by nudging collapsed boundaries.
        for i in range(1, n + 1):
            if bounds[i] <= bounds[i - 1]:
                bounds[i] = bounds[i - 1] + 1
        overflow = bounds[-1] - nprocs
        if overflow > 0:
            # Pull back from the right while preserving >= 1 rank each.
            for i in range(n - 1, 0, -1):
                if overflow == 0:
                    break
                shrinkable = bounds[i] - bounds[i - 1] - 1
                give = min(shrinkable, overflow)
                bounds[i:n] -= give
                overflow -= give
            bounds[-1] = nprocs
        return [np.arange(bounds[i], bounds[i + 1]) for i in range(n)]

    def _block_hue(
        self,
        mask: np.ndarray,
        ranks: np.ndarray,
        parts: list[list[tuple[np.ndarray, np.ndarray]]],
    ) -> None:
        """Expert blocking of the unrefined base-grid remainder (level 0).

        The hue lives at base-grid resolution; its cells are enumerated
        sparsely and merged into same-rank boxes — no owner raster.
        """
        unit_w = np.where(mask, 1.0, 0.0)
        coords, unit_rank = self._assign_units(unit_w, ranks)
        corners, box_ranks = cell_boxes(coords, unit_rank)
        if corners.shape[0]:
            parts[0].append((corners, box_ranks))

    def _block_core(
        self,
        hierarchy: GridHierarchy,
        core_mask: np.ndarray,
        ranks: np.ndarray,
        parts: list[list[tuple[np.ndarray, np.ndarray]]],
    ) -> None:
        """Bi-level blocking of one Core region, rasterless.

        Per bi-level, the atomic-unit weight grid (at the bi-level's
        coarse resolution divided by the unit side) is one
        :func:`~repro.geometry.block_overlaps` call over the member
        levels' patches clipped to the Core, each level's rows with its
        own block side and time-refinement weight; units are
        SFC-assigned exactly as the dense path did, and each member
        level's owner map is the unit blocks refined to the level and
        clipped against its in-Core patches.
        """
        p = self.params
        ndim = core_mask.ndim
        nlev = hierarchy.nlevels
        cells = np.argwhere(core_mask)
        core_corners, _ = cell_boxes(cells, np.zeros(len(cells), np.int32))
        # Base-grid bounding box of the Core: the unit weight grid only
        # needs to cover it.  At fractional blocking (unit == 1) a
        # full-domain unit grid would be the last volume-proportional
        # dense array in the partitioner; the window keeps it O(Core).
        core_lo = core_corners[:, :ndim].min(axis=0)
        core_hi = core_corners[:, ndim:].max(axis=0)
        for lc in range(0, nlev, p.bilevel_size):
            lf_range = range(lc, min(lc + p.bilevel_size, nlev))
            coarse_ratio = hierarchy.cumulative_ratio(lc)
            coarse_shape = tuple(s * coarse_ratio for s in core_mask.shape)
            unit = 1 if p.fractional_blocking else p.atomic_unit
            unit_shape = tuple(-(-s // unit) for s in coarse_shape)
            win_lo = (core_lo * coarse_ratio) // unit
            win_hi = -(-(core_hi * coarse_ratio) // unit)
            clipped: dict[int, np.ndarray] = {}
            rows, blocks, weights = [], [], []
            for lf in lf_range:
                sub = hierarchy.cumulative_ratio(lf) // coarse_ratio
                patch_corners = box_corners(
                    hierarchy[lf].patches.boxes, ndim
                )
                sect, _, _ = pair_intersections(
                    patch_corners, core_corners * (coarse_ratio * sub)
                )
                clipped[lf] = sect
                w = float(hierarchy[lf].time_refinement_weight())
                block = unit * sub
                rows.append(sect - np.concatenate((win_lo, win_lo)) * block)
                blocks.append(np.full(len(sect), block))
                weights.append(np.full(len(sect), w))
            unit_w = block_overlaps(
                tuple(win_hi - win_lo),
                np.concatenate(rows),
                np.concatenate(blocks),
                np.concatenate(weights),
            )
            coords, unit_rank = self._assign_units(
                unit_w, ranks, origin=win_lo, unit_shape=unit_shape
            )
            if not coords.shape[0]:
                continue
            unit_box_corners, unit_ranks = cell_boxes(coords, unit_rank)
            unit_corners = unit_box_corners * unit
            # Paint every member level of the bi-level from one decomposition.
            for lf in lf_range:
                sub = hierarchy.cumulative_ratio(lf) // coarse_ratio
                sect, ai, _ = pair_intersections(
                    unit_corners * sub, clipped[lf]
                )
                if sect.shape[0]:
                    parts[lf].append((sect, unit_ranks[ai]))

    def _assign_units(
        self,
        unit_w: np.ndarray,
        ranks: np.ndarray,
        origin: np.ndarray | None = None,
        unit_shape: tuple[int, ...] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """SFC-ordered assignment of non-empty atomic units to ranks.

        ``unit_w`` may be a window into a larger unit grid: ``origin`` is
        the window's offset (coordinates are made absolute *before* the
        SFC ordering) and ``unit_shape`` the full grid's extents (fixing
        the curve's order bits), so a windowed call assigns exactly what
        a full-grid call would.  Only units with positive weight are
        enumerated — ``(k, ndim)`` coordinates in row-major order plus a
        rank per unit, assigned along the SFC order and scattered back,
        so :func:`~repro.geometry.cell_boxes` sorts them in linear time;
        no dense owner raster exists at any point.  Every cell the
        bi-level must own lies in a unit with positive weight (the
        weights are integer counts times positive level weights).
        """
        p = self.params
        if unit_shape is None:
            unit_shape = unit_w.shape
        nonzero = np.nonzero(unit_w > 0)
        coords = np.stack(nonzero, axis=1).astype(np.int64)
        if origin is not None:
            coords += np.asarray(origin, dtype=np.int64)
        order_bits = max(1, int(np.ceil(np.log2(max(unit_shape)))))
        order = sfc_order_nd(
            [coords[:, d] for d in range(coords.shape[1])],
            curve=p.curve,
            order=order_bits,
        )
        unit_rank = np.empty(order.size, dtype=np.int32)
        unit_rank[order] = _assign_sequence(unit_w[nonzero][order], ranks, p.q)
        return coords, unit_rank
