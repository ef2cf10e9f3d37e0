"""Space-filling curves over N-dimensional integer grids.

Domain-based SAMR partitioners (Part I's SFC partitioners, and the coarse
partitioning stage of Nature+Fable) order the cells or atomic units of the
base grid along a space-filling curve and cut the resulting 1-D sequence
into processor segments.  Locality of the curve translates directly into
low partition surface area and hence low ghost communication.

Two curves are provided:

* **Morton (Z-order)** — bit interleaving; cheap, decent locality, the
  "partially ordered" curve the paper mentions for Nature+Fable.
* **Hilbert** — the fully-ordered curve; every consecutive pair of cells is
  face-adjacent, giving the best locality.

Both work in any dimension.  The 2-D entry points (``morton_key`` and
``hilbert_key``) are kept as fast paths with their original signatures
and bit-exact results; the ``*_nd`` functions accept a sequence of
per-axis coordinate arrays.  2-D Hilbert uses the classic
rot/flip iteration (Lam & Shapiro formulation); higher dimensions use the
vectorized Skilling transpose algorithm ("Programming the Hilbert curve",
AIP Conf. Proc. 707, 2004).  Everything is vectorized so partitioners can
sort millions of cells without Python loops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "morton_key",
    "morton_key_nd",
    "hilbert_key",
    "hilbert_key_nd",
    "max_order",
    "sfc_order_nd",
]


def max_order(ndim: int) -> int:
    """Largest supported ``order`` (bits per axis) for ``ndim`` dimensions.

    Keys are packed into unsigned 64-bit integers, so ``order * ndim`` may
    not exceed 63 (2-D keeps its historical limit of 31 bits per axis).
    """
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    return 63 // ndim


def _check_order(order: int, ndim: int) -> None:
    limit = max_order(ndim)
    if not 1 <= order <= limit:
        raise ValueError(f"order must be in [1, {limit}] for {ndim}-d keys")


def _resolve_order(order: int | None, ndim: int) -> int:
    """Default bits-per-axis: 16 where the 63-bit key budget allows, else
    the largest order that fits ``ndim`` axes."""
    if order is None:
        order = min(16, max_order(ndim))
    _check_order(order, ndim)
    return order


def _as_uint(coords: np.ndarray, order: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.int64)
    if coords.min(initial=0) < 0:
        raise ValueError("coordinates must be non-negative")
    if coords.max(initial=0) >= (1 << order):
        raise ValueError(f"coordinates exceed 2^{order} - 1")
    return coords.astype(np.uint64)


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v so there is a zero between each bit."""
    v = v & np.uint64(0xFFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _part1by2(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of v with two zeros between each bit."""
    v = v & np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & np.uint64(0x001F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x001F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def _spread_bits(v: np.ndarray, ndim: int, order: int) -> np.ndarray:
    """Spread bits so consecutive bits land ``ndim`` positions apart."""
    if ndim == 1:
        return v
    if ndim == 2:
        return _part1by1(v)
    if ndim == 3:
        return _part1by2(v)
    out = np.zeros_like(v)
    one = np.uint64(1)
    for b in range(order):
        out |= ((v >> np.uint64(b)) & one) << np.uint64(b * ndim)
    return out


# ---------------------------------------------------------------------------
# Morton (Z-order)
# ---------------------------------------------------------------------------
def morton_key(x: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """Z-order keys for 2-D cell coordinate arrays (fast path).

    Parameters
    ----------
    x, y :
        Integer coordinate arrays (broadcastable), each in
        ``[0, 2**order)``.
    order :
        Bits per dimension (side of the implied square grid).
    """
    _check_order(order, 2)
    xs = _part1by1(_as_uint(np.asarray(x), order))
    ys = _part1by1(_as_uint(np.asarray(y), order))
    return (xs | (ys << np.uint64(1))).astype(np.uint64)


def morton_key_nd(
    coords: Sequence[np.ndarray], order: int | None = None
) -> np.ndarray:
    """Z-order keys for N-D coordinates.

    Parameters
    ----------
    coords :
        Sequence of per-axis integer coordinate arrays (one entry per
        dimension, broadcastable against each other), each in
        ``[0, 2**order)``.  Axis 0 occupies the least-significant bit of
        every interleaved group, matching the 2-D ``morton_key(x, y)``
        convention.
    order :
        Bits per dimension; ``order * ndim`` must not exceed 63.  Defaults
        to 16 capped at :func:`max_order` of the dimension.
    """
    ndim = len(coords)
    order = _resolve_order(order, ndim)
    arrays = np.broadcast_arrays(*(_as_uint(np.asarray(c), order) for c in coords))
    key = np.zeros(arrays[0].shape, dtype=np.uint64)
    for d, arr in enumerate(arrays):
        key |= _spread_bits(arr, ndim, order) << np.uint64(d)
    return key


# ---------------------------------------------------------------------------
# Hilbert
# ---------------------------------------------------------------------------
def hilbert_key(x: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """Hilbert-curve keys for 2-D cell coordinate arrays (fast path).

    Vectorized Lam--Shapiro iteration: walks the bits from the top,
    accumulating the quadrant index and applying the rotation/reflection
    needed at each scale.
    """
    _check_order(order, 2)
    xv = _as_uint(np.asarray(x), order).astype(np.int64)
    yv = _as_uint(np.asarray(y), order).astype(np.int64)
    xv, yv = np.broadcast_arrays(xv, yv)
    xv = xv.copy()
    yv = yv.copy()
    key = np.zeros(xv.shape, dtype=np.uint64)
    s = 1 << (order - 1)
    while s > 0:
        rx = ((xv & s) > 0).astype(np.int64)
        ry = ((yv & s) > 0).astype(np.int64)
        key += (np.uint64(s) * np.uint64(s)) * ((3 * rx) ^ ry).astype(np.uint64)
        # Rotate quadrant.
        swap = ry == 0
        flip = swap & (rx == 1)
        xv_f = np.where(flip, s - 1 - xv, xv)
        yv_f = np.where(flip, s - 1 - yv, yv)
        xv_new = np.where(swap, yv_f, xv_f)
        yv_new = np.where(swap, xv_f, yv_f)
        xv, yv = xv_new, yv_new
        s >>= 1
    return key


def _axes_to_transpose(axes: list[np.ndarray], order: int) -> list[np.ndarray]:
    """Skilling AxesToTranspose, vectorized over coordinate arrays."""
    X = [a.copy() for a in axes]
    ndim = len(X)
    q = 1 << (order - 1)
    while q > 1:
        p = np.int64(q - 1)
        for i in range(ndim):
            hasbit = (X[i] & q) != 0
            t = (X[0] ^ X[i]) & p
            x0_inv = X[0] ^ p
            x0_exch = X[0] ^ t
            xi_exch = X[i] ^ t
            # X[0] may alias X[i] when i == 0; t is then zero and the
            # exchange branch is a no-op, matching the scalar algorithm.
            X[0] = np.where(hasbit, x0_inv, x0_exch)
            if i > 0:
                X[i] = np.where(hasbit, X[i], xi_exch)
        q >>= 1
    # Gray encode.
    for i in range(1, ndim):
        X[i] = X[i] ^ X[i - 1]
    t = np.zeros_like(X[0])
    q = 1 << (order - 1)
    while q > 1:
        mask = (X[ndim - 1] & q) != 0
        t = np.where(mask, t ^ np.int64(q - 1), t)
        q >>= 1
    for i in range(ndim):
        X[i] = X[i] ^ t
    return X


def hilbert_key_nd(
    coords: Sequence[np.ndarray], order: int | None = None
) -> np.ndarray:
    """Hilbert-curve keys for N-D coordinates.

    Parameters
    ----------
    coords :
        Sequence of per-axis integer coordinate arrays, as in
        :func:`morton_key_nd`.
    order :
        Bits per dimension; ``order * ndim`` must not exceed 63.  Defaults
        to 16 capped at :func:`max_order` of the dimension.

    Notes
    -----
    2-D delegates to the Lam--Shapiro fast path (bit-identical with the
    historical :func:`hilbert_key`); other dimensions use the Skilling
    transpose algorithm.  The two conventions differ in curve orientation
    but both are bijections onto ``[0, (2**order)**ndim)`` with unit-step
    face adjacency.
    """
    ndim = len(coords)
    order = _resolve_order(order, ndim)
    if ndim == 2:
        return hilbert_key(coords[0], coords[1], order)
    arrays = np.broadcast_arrays(
        *(_as_uint(np.asarray(c), order).astype(np.int64) for c in coords)
    )
    if ndim == 1:
        return arrays[0].astype(np.uint64)
    X = _axes_to_transpose(list(arrays), order)
    # The transposed form holds bit b of axis i at significance
    # (b * ndim + ndim - 1 - i): axis 0 carries the top bit of each group.
    key = np.zeros(X[0].shape, dtype=np.uint64)
    for i, xi in enumerate(X):
        key |= _spread_bits(xi.astype(np.uint64), ndim, order) << np.uint64(
            ndim - 1 - i
        )
    return key


# ---------------------------------------------------------------------------
# Ordering helpers
# ---------------------------------------------------------------------------
def sfc_order_nd(
    coords: Sequence[np.ndarray], curve: str = "hilbert", order: int | None = None
) -> np.ndarray:
    """Permutation ordering N-D cells along the chosen curve.

    Parameters
    ----------
    coords :
        Sequence of per-axis coordinate arrays (one per dimension).
    curve :
        ``"hilbert"`` (fully ordered) or ``"morton"`` (partially ordered).

    Returns
    -------
    ndarray of int
        ``argsort`` of the curve keys, stable.
    """
    if curve == "hilbert":
        keys = hilbert_key_nd(coords, order)
    elif curve == "morton":
        keys = morton_key_nd(coords, order)
    else:
        raise ValueError(f"unknown curve {curve!r} (use 'hilbert' or 'morton')")
    return np.argsort(keys, kind="stable")
