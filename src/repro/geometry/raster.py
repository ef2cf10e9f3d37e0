"""Rasterization of boxes onto dense numpy grids.

Dense rasters serve where a kernel works cell by cell on a level's index
space: the apps flag cells and cluster the flags into patches, and the
hierarchy marks the refined base cells Nature+Fable separates into Hues
and Cores.  The way back, from labelled cells to disjoint boxes, is
:func:`~repro.geometry.ownermap.cell_boxes`, which takes cell
coordinates rather than a raster.  The simulator's load, ghost
communication and migration run on sparse owner maps
(:mod:`repro.geometry.ownermap`), never on rasters.

All helpers are dimension-general.  :func:`block_overlaps` sums the
weighted volumes of a whole corner array per block of any rank without
a raster, in one scatter and one prefix sum per axis: the column
workloads of :meth:`GridHierarchy.column_workloads
<repro.hierarchy.GridHierarchy.column_workloads>` and Nature+Fable's
bi-level unit weights are one call each.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .box import Box

__all__ = [
    "NO_OWNER",
    "rasterize_mask",
    "paint_box",
    "block_overlaps",
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


def block_overlaps(
    shape: Sequence[int],
    corners: np.ndarray,
    factor: int | np.ndarray = 1,
    weight: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Weighted per-block overlap volumes of corner rows, summed.

    Returns a float64 array of ``shape`` blocks.  Row ``i`` of the
    ``(n, 2*ndim)`` array ``corners`` lives in an index space of
    ``factor_i`` cells per block and axis: block ``c`` spans ``[c*f_i,
    (c+1)*f_i)``.  Every block holds ``sum_i weight_i * |row_i ∩
    block|``; ``factor`` and ``weight`` are scalars or one value per
    row, and rows are clipped to ``[0, shape*f_i)``.  For a disjoint
    patch set of one factor this is ``block_sum(rasterize_mask(...), f)
    * weight`` (``block_sum`` is the dense oracle in
    ``tests/dense_oracle.py``), without ever materializing the fine
    raster, which is what keeps column and atomic-unit workloads
    computable at paper-scale 3-D resolutions.

    Along one axis a row ``[lo, hi)`` covers blocks ``lo//f .. hi//f``
    by ``f - lo%f, f, ..., f, hi%f``, whose first difference has at most
    four nonzeros.  A row's N-D difference is the outer product of its
    per-axis ones: ``4**ndim`` entries.  Entries at or past the grid edge
    are dropped, because a forward prefix sum carries them only past it.
    The sums change only at blocks where an entry sits, so each axis is
    compressed to those cut blocks: one ``np.bincount`` scatters every
    entry onto the compressed grid and one prefix sum per axis integrates
    it.  The compressed cells are then written into a zero array one
    layer along the first axis at a time, each layer only over the rows
    its nonzero cells span: a large, mostly empty window costs what its
    rows cover, and its empty pages are never touched.  All quantities
    are integer-valued multiples of the weights, so the float sums are
    exact and order-independent, and a block nothing overlaps holds
    ``+0.0``.
    """
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    corners = np.asarray(corners, dtype=np.int64)
    if corners.ndim != 2 or corners.shape[1] != 2 * ndim:
        raise ValueError(
            f"expected corner rows of width {2 * ndim}, got shape "
            f"{corners.shape}"
        )
    f = np.asarray(factor, dtype=np.int64)
    if (f < 1).any():
        raise ValueError("factor must be >= 1")
    n = corners.shape[0]
    f = np.broadcast_to(f, (n,))[:, None]
    w = np.broadcast_to(np.asarray(weight, dtype=np.float64), (n,))
    edge = np.asarray(shape, dtype=np.int64) * f
    lo = np.clip(corners[:, :ndim], 0, edge)
    hi = np.minimum(corners[:, ndim:], edge)
    keep = (hi > lo).all(axis=1)
    out = np.zeros(shape)
    if not keep.any():
        return out
    lo, hi, f, w = lo[keep], hi[keep], f[keep], w[keep]
    qlo, rlo = np.divmod(lo, f)
    qhi, rhi = np.divmod(hi, f)
    index = np.stack((qlo, qlo + 1, qhi, qhi + 1), axis=-1)
    step = np.stack((f - rlo, rlo, rhi - f, -rhi), axis=-1)
    past = index >= np.asarray(shape)[:, None]
    index[past] = 0
    step[past] = 0
    # Compressed cell c of axis d spans blocks cuts[d][c] .. cuts[d][c+1].
    cuts = []
    for d in range(ndim):
        at, inverse = np.unique(index[:, d], return_inverse=True)
        index[:, d] = inverse.reshape(-1, 4)
        cuts.append(np.append(at, shape[d]))
    sizes = [len(c) - 1 for c in cuts]
    flat = np.zeros(len(w), dtype=np.int64)
    value = w
    for d in range(ndim):
        axis_shape = (len(w),) + (1,) * d + (4,)
        flat = flat[..., None] * sizes[d] + index[:, d].reshape(axis_shape)
        value = value[..., None] * step[:, d].reshape(axis_shape)
    sums = np.bincount(
        flat.ravel(), value.ravel(), minlength=math.prod(sizes)
    ).reshape(sizes)
    for d in range(ndim):
        np.cumsum(sums, axis=d, out=sums)
    for k in np.flatnonzero(sums.reshape(sizes[0], -1).any(axis=1)):
        layer = sums[k]
        region = [slice(cuts[0][k], cuts[0][k + 1])]
        if ndim > 1:
            rows = np.flatnonzero(layer.reshape(sizes[1], -1).any(axis=1))
            a, b = rows[0], rows[-1] + 1
            region.append(slice(cuts[1][a], cuts[1][b]))
            layer = np.repeat(layer[a:b], np.diff(cuts[1][a : b + 1]), axis=0)
            for d in range(2, ndim):
                region.append(slice(cuts[d][0], None))
                layer = np.repeat(layer, np.diff(cuts[d]), axis=d - 1)
        out[tuple(region)] = layer
    return out
