"""Migration-minimizing incremental remapper ("diffusion-like" repartitioning).

Section 4 of the paper notes that, unlike the other trade-offs, data
migration has *no unique counterpart*: one can attack it by "invoking some
kind of post mapping technique or switching methods to a more
'diffusion-like' one" — whatever the current partitioning's weaknesses,
they are what gets traded away.  The optimal amount of migration is zero:
keep all data where it is.

:class:`StickyRepartitioner` realizes that family of strategies.  It wraps
any inner partitioner and, at each regrid:

1. keeps the previous owner for every cell that persists from ``H_{t-1}``
   to ``H_t`` (zero migration for surviving data);
2. gives newly-created cells their inner-partitioner owner (new data is
   interpolated in place, not migrated);
3. runs a *bounded diffusion pass*: while the load imbalance exceeds
   ``imbalance_tolerance``, cells of the most-loaded rank are re-assigned
   to the rank the fresh inner partition chose for them, in deterministic
   scan order, up to ``migration_budget`` (a fraction of ``|H_{t-1}|``).

With a zero budget it degenerates to pure ownership persistence; with an
infinite budget and zero tolerance it converges to the inner partitioner's
fresh answer.  The meta-partitioner moves along exactly this dial when
dimension III says migration is (or is not) worth optimizing.

All three steps work on one cut per level: the previous owner map cut
along the fresh one by a single pair query, each piece carrying its
current owner (the previous one until a move hands it over), its fresh
owner and the fresh row that holds it.  Only the pieces whose two owners
differ are kept; every other cell already has its fresh owner, and no
move can touch it.  The loads are the fresh map's per-rank counts
corrected by the pieces, so a move is a mask over the pieces (those
the most-loaded rank holds).  When it moves them all, they leave the
cut; otherwise :func:`~repro.geometry.split_in_scan_order` splits them
at their ``take``-th cell in row-major scan order, the exact sparse
counterpart of ``np.flatnonzero(movable)[:take]`` on a raster, and the
first part leaves.  The output overlays the remaining pieces, under
their current owners, on the fresh map through
:func:`~repro.geometry.overlay_pairs`, which reuses the pairs the cut
already holds.  The pair query behind the cut prunes large operands
with grid-bucket candidates (:mod:`repro.geometry.pairindex`), which
emit pairs in the brute-force broadcast's canonical order, so the
remapper's output does not depend on which path served the query.
"""

from __future__ import annotations

import numpy as np

from ..geometry import (
    OwnerMap,
    corner_volumes,
    overlay_pairs,
    pair_intersections,
    split_in_scan_order,
)
from ..hierarchy import GridHierarchy
from .base import PartitionResult, Partitioner

__all__ = ["StickyRepartitioner"]


class _Cut:
    """One level's previous owner map cut along its fresh one.

    Holds the pieces of ``previous ∩ fresh`` whose current owner
    (``cur``) differs from their fresh owner (``fresh``), with the fresh
    row (``row``) holding each piece and its cell count (``volumes``).
    """

    def __init__(self, previous: OwnerMap, fresh: OwnerMap) -> None:
        pieces, pi, fj = pair_intersections(previous.corners, fresh.corners)
        cur, dest = previous.ranks[pi], fresh.ranks[fj]
        differ = cur != dest
        self.fresh_map = fresh
        self.corners = pieces[differ]
        self.cur, self.fresh, self.row = cur[differ], dest[differ], fj[differ]
        self.volumes = corner_volumes(self.corners)

    def rank_counts(self, nprocs: int) -> np.ndarray:
        """Cells per rank of the working distribution (int64): the fresh
        map's counts, with each piece moved from its fresh owner to its
        current one."""
        counts = self.fresh_map.rank_cell_counts(nprocs)
        np.add.at(counts, self.cur, self.volumes)
        np.subtract.at(counts, self.fresh, self.volumes)
        return counts

    def move(
        self, movable: np.ndarray, take: int, volume: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hand the first ``take`` of the ``volume`` cells of the
        ``movable`` pieces, in row-major scan order, to their fresh
        owners; those cells leave the cut.  Returns the fresh owner and
        the cell count of every piece handed over."""
        dest, cells = self.fresh[movable], self.volumes[movable]
        stay = np.flatnonzero(~movable)
        corners = self.corners[stay]
        if take < volume:
            idx = np.flatnonzero(movable)
            chosen, chosen_src, rest, rest_src = split_in_scan_order(
                self.corners[idx], self.fresh_map.shape, take
            )
            dest, cells = dest[chosen_src], corner_volumes(chosen)
            stay = np.concatenate((stay, idx[rest_src]))
            corners = np.concatenate((corners, rest))
        self.corners = corners
        self.cur, self.fresh, self.row = (
            self.cur[stay], self.fresh[stay], self.row[stay]
        )
        self.volumes = corner_volumes(corners)
        return dest, cells

    def owner_map(self) -> OwnerMap:
        """The fresh map with every piece under its current owner."""
        n = self.corners.shape[0]
        if n == 0:
            return self.fresh_map
        fresh = self.fresh_map
        corners, ranks = overlay_pairs(
            self.corners, self.cur, fresh.corners, fresh.ranks,
            self.row, np.arange(n),
        )
        return OwnerMap(fresh.shape, corners, ranks)


class StickyRepartitioner(Partitioner):
    """Ownership-persistent wrapper around an inner partitioner.

    Parameters
    ----------
    inner :
        The partitioner producing fresh target distributions.
    imbalance_tolerance :
        Acceptable ``max/avg`` load ratio before diffusion kicks in
        (1.0 = perfect balance required; typical 1.1--1.5).
    migration_budget :
        Upper bound on diffused cells per regrid, as a fraction of the
        previous hierarchy's size.  ``None`` = unbounded.
    """

    name = "sticky"

    def __init__(
        self,
        inner: Partitioner,
        imbalance_tolerance: float = 1.25,
        migration_budget: float | None = 0.25,
    ) -> None:
        if imbalance_tolerance < 1.0:
            raise ValueError("imbalance_tolerance must be >= 1.0")
        if migration_budget is not None and migration_budget < 0:
            raise ValueError("migration_budget must be >= 0")
        self.inner = inner
        self.imbalance_tolerance = imbalance_tolerance
        self.migration_budget = migration_budget

    def describe(self) -> dict:
        return {
            "name": self.name,
            "inner": self.inner.describe(),
            "imbalance_tolerance": self.imbalance_tolerance,
            "migration_budget": self.migration_budget,
        }

    def cost_seconds(self, hierarchy: GridHierarchy, nprocs: int) -> float:
        # One fresh inner run plus a cheap diffusion sweep.
        return self.inner.cost_seconds(hierarchy, nprocs) * 1.2

    def partition(
        self,
        hierarchy: GridHierarchy,
        nprocs: int,
        previous: PartitionResult | None = None,
    ) -> PartitionResult:
        fresh = self.inner.partition(hierarchy, nprocs, previous)
        if previous is None or previous.nprocs != nprocs:
            return PartitionResult(
                maps=fresh.maps,
                nprocs=nprocs,
                partition_seconds=self.cost_seconds(hierarchy, nprocs),
            )
        # Persisting cells (owned at t-1 and t) keep the previous owner;
        # the remainder keeps the fresh one.
        cuts: list[_Cut | None] = []
        prev_cells = 0
        for l, target in enumerate(fresh.maps):
            prev_m = previous.maps[l] if l < previous.nlevels else None
            if prev_m is None or prev_m.shape != target.shape:
                cuts.append(None)
                continue
            cuts.append(_Cut(prev_m, target))
            prev_cells += prev_m.ncells
        self._diffuse(cuts, fresh, hierarchy, prev_cells, nprocs)
        maps = tuple(
            target if cut is None else cut.owner_map()
            for target, cut in zip(fresh.maps, cuts)
        )
        return PartitionResult(
            maps=maps,
            nprocs=nprocs,
            partition_seconds=self.cost_seconds(hierarchy, nprocs),
        )

    # ------------------------------------------------------------------
    def _diffuse(
        self,
        cuts: list[_Cut | None],
        fresh: PartitionResult,
        hierarchy: GridHierarchy,
        prev_cells: int,
        nprocs: int,
    ) -> None:
        """Bounded load diffusion towards the fresh target distribution."""
        budget = (
            None
            if self.migration_budget is None
            else int(self.migration_budget * prev_cells)
        )
        if budget == 0:
            return
        weights = [float(level.time_refinement_weight()) for level in hierarchy]
        # Per-rank loads of the working distribution (same math as
        # repro.partition.base.proc_loads).
        loads = np.zeros(nprocs, dtype=np.float64)
        for target, cut, w in zip(fresh.maps, cuts, weights):
            counts = (
                target.rank_cell_counts(nprocs)
                if cut is None
                else cut.rank_counts(nprocs)
            )
            loads += counts * w
        moved = 0
        # Iterate overloaded ranks; move their cells towards the fresh owner.
        for _ in range(8 * nprocs):
            avg = loads.mean()
            if avg <= 0:
                return
            worst = int(np.argmax(loads))
            if loads[worst] <= self.imbalance_tolerance * avg:
                return
            for cut, w in zip(cuts, weights):
                if cut is None:
                    continue
                # A piece's two owners differ, so every piece `worst`
                # holds goes to another rank.
                movable = cut.cur == worst
                volume = int(cut.volumes[movable].sum())
                if volume == 0:
                    continue
                # How many cells bring `worst` back under tolerance?
                excess = (loads[worst] - self.imbalance_tolerance * avg) / w
                take = int(min(volume, max(1, np.ceil(excess))))
                if budget is not None:
                    take = min(take, budget - moved)
                    if take <= 0:
                        return
                dest, cells = cut.move(movable, take, volume)
                dest_counts = np.zeros(nprocs, dtype=np.int64)
                np.add.at(dest_counts, dest, cells)
                loads += dest_counts * w
                loads[worst] -= take * w
                moved += take
                break
            else:
                return
