"""Rasterization of boxes onto dense numpy grids.

Dense rasters serve where a kernel works cell by cell on a level's index
space: the apps flag cells and cluster the flags into patches, and the
hierarchy marks the refined base cells Nature+Fable separates into Hues
and Cores.  The way back, from labelled cells to disjoint boxes, is
:func:`~repro.geometry.ownermap.cell_boxes`, which takes cell
coordinates rather than a raster.  The simulator's load, ghost
communication and migration run on sparse owner maps
(:mod:`repro.geometry.ownermap`), never on rasters.

All helpers are dimension-general: :func:`add_box_overlap` sums box
volumes per block of any rank without a raster.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .box import Box

__all__ = [
    "NO_OWNER",
    "rasterize_mask",
    "paint_box",
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
