"""Error-estimation utilities: solution fields -> refinement flag rasters.

The GrACE/Cactus-style kernels behind the paper's traces flag cells whose
local truncation-error estimate exceeds a tolerance.  We use the standard
scaled-gradient indicator (the workhorse of production SAMR codes such as
AMReX and SAMRAI) plus flag buffering.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gradient_indicator",
    "buffer_flags",
]


def gradient_indicator(field: np.ndarray) -> np.ndarray:
    """Undivided-gradient error indicator, normalized to ``[0, 1]``.

    Computes ``max_d |field[i+e_d] - field[i-e_d]| / 2`` with edge
    replication and scales by the global maximum (0 everywhere for a
    constant field).  Cheap, robust and partitioning-independent — exactly
    the kind of estimator a single-processor trace run uses.
    """
    if field.ndim < 1:
        raise ValueError("field must have at least one dimension")
    indicator = np.zeros_like(field, dtype=np.float64)
    for d in range(field.ndim):
        forward = np.roll(field, -1, axis=d)
        backward = np.roll(field, 1, axis=d)
        # Replicate edges instead of wrapping.
        sl_first = [slice(None)] * field.ndim
        sl_last = [slice(None)] * field.ndim
        sl_first[d] = slice(0, 1)
        sl_last[d] = slice(-1, None)
        forward[tuple(sl_last)] = field[tuple(sl_last)]
        backward[tuple(sl_first)] = field[tuple(sl_first)]
        np.maximum(indicator, np.abs(forward - backward) * 0.5, out=indicator)
    peak = indicator.max()
    if peak > 0:
        indicator /= peak
    return indicator


def buffer_flags(flags: np.ndarray, width: int) -> np.ndarray:
    """Dilate flags by ``width`` cells (Chebyshev ball), clipped at the edges.

    SAMR codes buffer flagged regions so features do not escape the
    refined patches between regrids.  The dilation is separable: along
    each axis a cell is set when the window of ``2 * width + 1`` cells
    centred on it, clipped to the array, holds a flag.  Each window's
    flag count is a difference of running counts over the axis padded
    with unflagged cells, O(n) per axis whatever ``width`` is.  The
    counts are kept in the narrowest unsigned type that holds ``2 *
    width + 1``: a difference is exact modulo its range, so it is zero
    exactly when the window is empty.  Clipping equals scipy's
    ``maximum_filter`` in its default ``reflect`` mode, because every
    reflected cell already lies inside the clipped window.
    """
    if width < 0:
        raise ValueError("buffer width must be >= 0")
    out = flags.astype(bool)
    if width == 0 or not out.any():
        return out
    span = 2 * width + 1
    dtype = np.min_scalar_type(span)
    for axis in range(out.ndim):
        n = out.shape[axis]
        pre = (slice(None),) * axis
        shape = out.shape[:axis] + (n + span,) + out.shape[axis + 1:]
        padded = np.zeros(shape, dtype=bool)
        padded[pre + (slice(width + 1, width + 1 + n),)] = out
        counts = np.cumsum(padded, axis=axis, dtype=dtype)
        out = counts[pre + (slice(span, None),)] != counts[pre + (slice(0, n),)]
    return out
