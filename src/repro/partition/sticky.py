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

All three steps are box calculus on sparse owner maps: persistence is an
overlay (previous owners clipped to the new owned region, fresh owners
beneath), and the diffusion pass picks the first ``take`` movable cells
in row-major scan order by binary-searching a scan-prefix region — the
exact sparse counterpart of ``np.flatnonzero(movable)[:take]`` on a
raster, bit-identical without materializing one.  The overlap queries
behind both steps prune large queries with grid-bucket candidates
(:mod:`repro.geometry.pairindex`), which emit pairs in the brute-force
broadcast's canonical order, so the remapper's output does not depend
on which path served a query.
"""

from __future__ import annotations

import numpy as np

from ..geometry import (
    OwnerMap,
    corner_volumes,
    first_cells_in_scan_order,
    overlay_corners,
    pair_intersections,
    subtract_corners,
)
from ..hierarchy import GridHierarchy
from .base import PartitionResult, Partitioner

__all__ = ["StickyRepartitioner"]


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
        levels: list[list[np.ndarray]] = []
        prev_cells = 0
        for l in range(hierarchy.nlevels):
            target = fresh.maps[l]
            corners, ranks = target.corners, target.ranks
            if l < previous.nlevels:
                prev_m = previous.maps[l]
                if prev_m.shape == target.shape:
                    # Persisting cells (owned at t-1 and t) keep the
                    # previous owner; the remainder keeps the fresh one.
                    kept, pi, _ = pair_intersections(
                        prev_m.corners, target.corners
                    )
                    corners, ranks = overlay_corners(
                        kept, prev_m.ranks[pi], target.corners, target.ranks
                    )
                    prev_cells += prev_m.ncells
            levels.append([corners, ranks])
        self._diffuse(levels, fresh, hierarchy, prev_cells, nprocs)
        maps = tuple(
            OwnerMap(fresh.maps[l].shape, corners, ranks)
            for l, (corners, ranks) in enumerate(levels)
        )
        return PartitionResult(
            maps=maps,
            nprocs=nprocs,
            partition_seconds=self.cost_seconds(hierarchy, nprocs),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _loads(
        levels: list[list[np.ndarray]],
        hierarchy: GridHierarchy,
        nprocs: int,
    ) -> np.ndarray:
        """Per-rank loads of the working distribution (same math as
        :func:`~repro.partition.base.proc_loads`)."""
        loads = np.zeros(nprocs, dtype=np.float64)
        for level, (corners, ranks) in zip(hierarchy, levels):
            if corners.shape[0]:
                counts = np.zeros(nprocs, dtype=np.int64)
                np.add.at(counts, ranks, corner_volumes(corners))
                loads += counts * float(level.time_refinement_weight())
        return loads

    def _diffuse(
        self,
        levels: list[list[np.ndarray]],
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
        loads = self._loads(levels, hierarchy, nprocs)
        moved = 0
        # Iterate overloaded ranks; move their cells towards the fresh owner.
        for _ in range(8 * nprocs):
            avg = loads.mean()
            if avg <= 0:
                return
            worst = int(np.argmax(loads))
            if loads[worst] <= self.imbalance_tolerance * avg:
                return
            progress = False
            for l in range(hierarchy.nlevels):
                corners, ranks = levels[l]
                target = fresh.maps[l]
                w = float(hierarchy[l].time_refinement_weight())
                worst_sel = ranks == worst
                away = target.ranks != worst
                movable, _, tj = pair_intersections(
                    corners[worst_sel], target.corners[away]
                )
                volume = int(corner_volumes(movable).sum())
                if volume == 0:
                    continue
                # How many cells bring `worst` back under tolerance?
                excess = (loads[worst] - self.imbalance_tolerance * avg) / w
                take = int(min(volume, max(1, np.ceil(excess))))
                if budget is not None:
                    take = min(take, budget - moved)
                    if take <= 0:
                        return
                # First `take` movable cells in row-major scan order —
                # the sparse, bit-identical counterpart of the raster
                # path's np.flatnonzero(movable)[:take].
                chosen_c, src = first_cells_in_scan_order(
                    movable, target.shape, take
                )
                chosen_r = target.ranks[away][tj][src]
                dest_counts = np.zeros(nprocs, dtype=np.int64)
                np.add.at(dest_counts, chosen_r, corner_volumes(chosen_c))
                remaining = subtract_corners(corners[worst_sel], chosen_c)
                levels[l] = [
                    np.concatenate((corners[~worst_sel], remaining, chosen_c)),
                    np.concatenate(
                        (
                            ranks[~worst_sel],
                            np.full(remaining.shape[0], worst, np.int32),
                            chosen_r,
                        )
                    ),
                ]
                loads += dest_counts * w
                loads[worst] -= take * w
                moved += take
                progress = True
                break
            if not progress:
                return
