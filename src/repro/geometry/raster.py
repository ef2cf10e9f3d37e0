"""Rasterization of boxes onto dense numpy grids, and its inverse.

Dense rasters serve where a kernel works cell by cell on a level's index
space: the apps flag cells and cluster the flags into patches, the
hierarchy marks the refined base cells Nature+Fable separates into Hues
and Cores, and the partitioners lift dense unit-owner rasters into owner
maps.  The simulator's load, ghost communication and migration run on
sparse owner maps (:mod:`repro.geometry.ownermap`), never on rasters.

All helpers are dimension-general: :func:`add_box_overlap` sums box
volumes per block of any rank without a raster, and
:func:`boxes_from_mask` decomposes masks of any rank.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .box import Box

__all__ = [
    "NO_OWNER",
    "rasterize_mask",
    "paint_box",
    "boxes_from_mask",
    "boxes_from_labels",
    "add_box_overlap",
]

NO_OWNER: int = -1
"""Sentinel rank for cells outside the refined region of a level."""


def _check_domain(domain: Box) -> None:
    if domain.empty:
        raise ValueError("cannot rasterize onto an empty domain")
    if any(l != 0 for l in domain.lo):
        raise ValueError("raster domains must be anchored at the origin")


def paint_box(array: np.ndarray, box: Box, value: int) -> None:
    """Assign ``value`` to the cells of ``box`` inside ``array`` (clipped).

    ``array`` indexes the domain ``[0, shape)``; parts of ``box`` outside
    the array are silently ignored.
    """
    if box.ndim != array.ndim:
        raise ValueError("box/array dimension mismatch")
    slices = []
    for d in range(box.ndim):
        lo = max(box.lo[d], 0)
        hi = min(box.hi[d], array.shape[d])
        if hi <= lo:
            return
        slices.append(slice(lo, hi))
    array[tuple(slices)] = value


def rasterize_mask(boxes: Iterable[Box], domain: Box) -> np.ndarray:
    """Boolean raster of the union of ``boxes`` over ``domain``.

    ``domain`` must be anchored at the origin (SAMR level index spaces
    are); cells of ``boxes`` outside the domain are clipped away.
    """
    _check_domain(domain)
    mask = np.zeros(domain.shape, dtype=bool)
    for b in boxes:
        paint_box(mask, b, True)  # type: ignore[arg-type]
    return mask


def _runs_of(row: np.ndarray) -> list[Box]:
    """Maximal 1-D runs of True cells, in ascending order."""
    idx = np.flatnonzero(row)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [Box((int(idx[s]),), (int(idx[e]) + 1,)) for s, e in zip(starts, ends)]


def boxes_from_mask(mask: np.ndarray) -> list[Box]:
    """Decompose a boolean raster into disjoint boxes (greedy slab merge).

    Works in any dimension: each slab along the first axis is decomposed
    recursively, and identical sub-boxes of consecutive slabs are merged
    greedily along the first axis (the N-D generalization of the classic
    row-run merge).  Exact (the union of the result equals the mask) but
    not minimal; used to recover patch sets from masks in tests and in the
    clustering fallback path.

    The output order is deterministic: boxes are emitted as their extent
    along the first axis closes, sub-boxes in recursive scan order.
    """
    mask = np.asarray(mask)
    if mask.ndim < 1:
        raise ValueError("boxes_from_mask needs at least a 1-d mask")
    if mask.dtype != bool:
        mask = mask.astype(bool)
    if mask.ndim == 1:
        return _runs_of(mask)
    nslabs = mask.shape[0]
    # Active sub-boxes: sub-box -> start slab, carried while identical.
    # Insertion order is deterministic, so iteration (and hence output
    # order) is too.
    active: dict[Box, int] = {}
    out: list[Box] = []

    def close(sub: Box, start: int, stop: int) -> None:
        out.append(Box((start, *sub.lo), (stop, *sub.hi)))

    for r in range(nslabs):
        current = boxes_from_mask(mask[r])
        current_set = set(current)
        for sub in [s for s in active if s not in current_set]:
            close(sub, active.pop(sub), r)
        for sub in current:
            if sub not in active:
                active[sub] = r
    for sub, start in active.items():
        close(sub, start, nslabs)
    return out


def _label_runs_of(row: np.ndarray, background: int) -> list[tuple[Box, int]]:
    """Maximal 1-D runs of equal non-background values, ascending."""
    fg = row != background
    idx = np.flatnonzero(fg)
    if idx.size == 0:
        return []
    vals = row[idx]
    breaks = np.flatnonzero((np.diff(idx) > 1) | (np.diff(vals) != 0))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [
        (Box((int(idx[s]),), (int(idx[e]) + 1,)), int(vals[s]))
        for s, e in zip(starts, ends)
    ]


def boxes_from_labels(
    array: np.ndarray, background: int = NO_OWNER
) -> tuple[list[Box], list[int]]:
    """Decompose an integer label raster into disjoint single-value boxes.

    The labeled generalization of :func:`boxes_from_mask` (same greedy
    slab merge, same deterministic output order): every returned box
    covers cells of exactly one value, and their union is exactly the
    non-``background`` region.  This is how dense owner rasters are lifted
    into sparse :class:`~repro.geometry.ownermap.OwnerMap` form.
    """
    array = np.asarray(array)
    if array.ndim < 1:
        raise ValueError("boxes_from_labels needs at least a 1-d array")
    if not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"label rasters must be integer, got {array.dtype}")
    if array.ndim == 1:
        pairs = _label_runs_of(array, background)
        return [b for b, _ in pairs], [v for _, v in pairs]
    nslabs = array.shape[0]
    active: dict[tuple[Box, int], int] = {}
    boxes: list[Box] = []
    values: list[int] = []

    def close(sub: Box, value: int, start: int, stop: int) -> None:
        boxes.append(Box((start, *sub.lo), (stop, *sub.hi)))
        values.append(value)

    for r in range(nslabs):
        sub_boxes, sub_values = boxes_from_labels(array[r], background)
        current = list(zip(sub_boxes, sub_values))
        current_set = set(current)
        for key in [k for k in active if k not in current_set]:
            close(*key, active.pop(key), r)
        for key in current:
            if key not in active:
                active[key] = r
    for key, start in active.items():
        close(*key, start, nslabs)
    return boxes, values


def add_box_overlap(
    array: np.ndarray, box: Box, factor: int, weight: float = 1.0
) -> None:
    """Accumulate a box's per-block overlap volumes into a coarse array.

    ``array`` covers blocks of ``factor`` cells per axis: block ``c`` spans
    ``[c*factor, (c+1)*factor)`` in the box's index space.  For every
    block, ``weight * |box ∩ block|`` is added in place.  Summed over a
    disjoint patch set this equals ``block_sum(rasterize_mask(...),
    factor) * weight`` (``block_sum`` is the dense oracle in
    ``tests/dense_oracle.py``) — without ever materializing the fine
    raster, which is what keeps column/atomic-unit workloads computable
    at paper-scale 3-D resolutions.  All quantities are integer-valued,
    so float accumulation is exact and order-independent.
    """
    if box.ndim != array.ndim:
        raise ValueError("box/array dimension mismatch")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if box.empty:
        return
    index: list[slice] = []
    axis_weights: list[np.ndarray] = []
    for d in range(box.ndim):
        c0 = max(box.lo[d] // factor, 0)
        c1 = min(-(-box.hi[d] // factor), array.shape[d])
        if c1 <= c0:
            return
        edges = np.arange(c0, c1 + 1, dtype=np.int64) * factor
        cover = np.minimum(edges[1:], box.hi[d]) - np.maximum(
            edges[:-1], box.lo[d]
        )
        index.append(slice(c0, c1))
        axis_weights.append(cover)
    contrib = axis_weights[0].astype(np.float64) * weight
    for w in axis_weights[1:]:
        contrib = contrib[..., None] * w
    array[tuple(index)] += contrib
