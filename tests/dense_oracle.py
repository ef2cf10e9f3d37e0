"""Dense-raster oracle of the simulator metrics.

The production metrics (:mod:`repro.simulator.raster_metrics`) are box
calculus on sparse owner maps.  These are the original numpy reductions
over dense owner rasters (int32, ``NO_OWNER`` outside the refined
region): slow and volume-bound, but simple enough to check by eye.  The
property tests and the owner-map benchmark compare the sparse path
against them; nothing in ``src/`` imports this module.

:func:`rasterize_owners` paints ``(box, rank)`` assignments the dense
way, the oracle of :meth:`OwnerMap.rasterize
<repro.geometry.OwnerMap.rasterize>`; :func:`rasters` is a distribution's
per-level rasters, :func:`upsample` refines a raster and
:func:`block_sum` coarsens one, the oracle of the rasterless
:func:`~repro.geometry.block_overlaps` behind the column and unit
workloads and ``beta_L``: each corner row's rasterized mask, block-summed
and weighted, summed over the rows.  :func:`sticky_partition` is the
sticky remapper's persistence and diffusion on rasters, the oracle of
:class:`~repro.partition.StickyRepartitioner`'s sparse cut.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import NO_OWNER, Box, paint_box

__all__ = [
    "block_sum",
    "ghost_exchange_cells",
    "ghost_message_pairs",
    "interlevel_transfer_cells",
    "migration_cells",
    "proc_loads",
    "rasterize_owners",
    "rasters",
    "step_cells",
    "sticky_partition",
    "upsample",
]


def block_sum(array: np.ndarray, factor: int, dtype=None) -> np.ndarray:
    """Sum ``factor``-sized blocks along every axis (N-D block reduction).

    The result has shape ``array.shape // factor`` and each cell holds the
    sum of its ``factor**ndim`` source block.  Every extent must be
    divisible by ``factor``.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return array.astype(dtype) if dtype is not None else array
    if any(s % factor for s in array.shape):
        raise ValueError(f"shape {array.shape} not divisible by factor {factor}")
    view_shape: list[int] = []
    for s in array.shape:
        view_shape.extend((s // factor, factor))
    axes = tuple(range(1, 2 * array.ndim, 2))
    return array.reshape(view_shape).sum(axis=axes, dtype=dtype)


def upsample(array: np.ndarray, ratio: int) -> np.ndarray:
    """Repeat every cell ``ratio`` times along every axis.

    ``out[i0*r + a0, i1*r + a1, ...] == array[i0, i1, ...]``: the raster
    form of refining an index space by ``ratio``, as one broadcast and
    reshape instead of ``ndim`` chained ``np.repeat`` calls.
    """
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    if ratio == 1:
        return array
    view_shape: list[int] = []
    expand_shape: list[int] = []
    for s in array.shape:
        view_shape.extend((s, 1))
        expand_shape.extend((s, ratio))
    expanded = np.broadcast_to(array.reshape(view_shape), expand_shape)
    return expanded.reshape(tuple(s * ratio for s in array.shape))


def rasterize_owners(
    assignments: Sequence[tuple[Box, int]], domain: Box
) -> np.ndarray:
    """Dense int32 owner raster from ``(box, rank)`` assignments.

    Later assignments overwrite earlier ones.  Cells no box covers hold
    ``NO_OWNER``; ``domain`` is anchored at the origin.
    """
    owners = np.full(domain.shape, NO_OWNER, dtype=np.int32)
    for box, rank in assignments:
        if rank < 0:
            raise ValueError(f"owner ranks must be >= 0, got {rank}")
        paint_box(owners, box, rank)
    return owners


def rasters(result) -> tuple[np.ndarray, ...]:
    """Dense int32 owner rasters of every level of a distribution."""
    return tuple(m.rasterize() for m in result.maps)


def _faces(raster: np.ndarray):
    """``(a, b, cut)`` per axis: face neighbours and the cut-face mask."""
    for axis in range(raster.ndim):
        a = np.moveaxis(raster, axis, 0)[:-1]
        b = np.moveaxis(raster, axis, 0)[1:]
        yield a, b, (a != NO_OWNER) & (b != NO_OWNER) & (a != b)


def ghost_exchange_cells(raster: np.ndarray, ghost_width: int = 1) -> int:
    """Cut faces of one level raster, times ``2 * ghost_width``."""
    return 2 * ghost_width * sum(int(cut.sum()) for _, _, cut in _faces(raster))


def ghost_message_pairs(raster: np.ndarray) -> int:
    """Distinct unordered rank pairs sharing a cut face, times two."""
    packed: list[np.ndarray] = []
    for a, b, cut in _faces(raster):
        if cut.any():
            av = a[cut].astype(np.int64)
            bv = b[cut].astype(np.int64)
            lo = np.minimum(av, bv)
            hi = np.maximum(av, bv)
            packed.append((lo << np.int64(32)) | hi)
    if not packed:
        return 0
    return 2 * int(np.unique(np.concatenate(packed)).size)


def interlevel_transfer_cells(
    coarse: np.ndarray, fine: np.ndarray, ratio: int
) -> int:
    """Owned fine cells whose owned parent cell has a different owner."""
    parent = upsample(coarse, ratio)
    mask = (fine != NO_OWNER) & (parent != NO_OWNER) & (fine != parent)
    return int(mask.sum())


def migration_cells(
    prev_rasters: tuple[np.ndarray, ...], cur_rasters: tuple[np.ndarray, ...]
) -> int:
    """Owned cells whose data source had a different owner.

    A cell's source is its own previous owner where its level existed,
    else the source of its parent column (level 0 always exists).
    """
    total = 0
    source: np.ndarray | None = None
    for l, b in enumerate(cur_rasters):
        if source is None:
            src_l = prev_rasters[0]
        else:
            src_l = upsample(source, b.shape[0] // source.shape[0])
        if l < len(prev_rasters):
            pl = prev_rasters[l]
            src_l = np.where(pl != NO_OWNER, pl, src_l)
        owned = b != NO_OWNER
        total += int((owned & (src_l != b)).sum())
        source = src_l
    return total


def proc_loads(level_rasters, hierarchy, nprocs: int) -> np.ndarray:
    """Per-rank owned cells, weighted by each level's time refinement."""
    loads = np.zeros(nprocs, dtype=np.float64)
    for level, raster in zip(hierarchy, level_rasters):
        owned = raster[raster != NO_OWNER]
        if owned.size:
            loads += np.bincount(owned, minlength=nprocs) * float(
                level.time_refinement_weight()
            )
    return loads


def step_cells(hierarchy, result, previous, ghost_width: int = 1):
    """``(comm_cells, interlevel_cells, migration_cells)`` of one step.

    The dense counterpart of the three cell counts
    :meth:`TraceSimulator.measure_step` reports.
    """
    cur = rasters(result)
    comm = sum(
        ghost_exchange_cells(cur[level.index], ghost_width)
        * level.time_refinement_weight()
        for level in hierarchy
    )
    interlevel = sum(
        interlevel_transfer_cells(
            cur[level.index - 1], cur[level.index], level.ratio
        )
        * level.time_refinement_weight()
        for level in hierarchy.levels[1:]
    )
    migrated = (
        0 if previous is None else migration_cells(rasters(previous), cur)
    )
    return comm, interlevel, migrated


def sticky_partition(
    previous: tuple[np.ndarray, ...],
    fresh: tuple[np.ndarray, ...],
    hierarchy,
    nprocs: int,
    imbalance_tolerance: float,
    migration_budget: float | None,
) -> tuple[np.ndarray, ...]:
    """The sticky remapper's rasters, given the previous and the fresh
    distribution's rasters.

    A cell both rasters of a level own keeps its previous owner, every
    other owned cell its fresh one.  Then, while the most-loaded rank
    ``worst`` exceeds ``imbalance_tolerance`` times the mean load, the
    first level holding cells that ``worst`` owns and the fresh raster
    gives to another rank hands ``take`` of them, the first in row-major
    order (``np.flatnonzero(movable)[:take]``), to their fresh owners:
    ``take`` covers the excess load, at most all of them and at most
    what is left of ``migration_budget`` times the previous cell count.
    """
    work: list[np.ndarray] = []
    prev_cells = 0
    for l, target in enumerate(fresh):
        out = target.copy()
        if l < len(previous) and previous[l].shape == target.shape:
            both = (previous[l] != NO_OWNER) & (target != NO_OWNER)
            out[both] = previous[l][both]
            prev_cells += int((previous[l] != NO_OWNER).sum())
        work.append(out)
    budget = (
        None if migration_budget is None else int(migration_budget * prev_cells)
    )
    if budget == 0:
        return tuple(work)
    weights = [float(level.time_refinement_weight()) for level in hierarchy]
    loads = proc_loads(work, hierarchy, nprocs)
    moved = 0
    for _ in range(8 * nprocs):
        avg = loads.mean()
        if avg <= 0:
            break
        worst = int(np.argmax(loads))
        if loads[worst] <= imbalance_tolerance * avg:
            break
        for out, target, w in zip(work, fresh, weights):
            movable = np.flatnonzero((out == worst) & (target != worst))
            if movable.size == 0:
                continue
            excess = (loads[worst] - imbalance_tolerance * avg) / w
            take = int(min(movable.size, max(1, np.ceil(excess))))
            if budget is not None:
                take = min(take, budget - moved)
                if take <= 0:
                    return tuple(work)
            cells = movable[:take]
            dest = target.flat[cells]
            out.flat[cells] = dest
            loads += np.bincount(dest, minlength=nprocs) * w
            loads[worst] -= take * w
            moved += take
            break
        else:
            break
    return tuple(work)
