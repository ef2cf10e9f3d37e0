"""Inverse space-filling curves: keys back to cell coordinates.

The partitioners only ever sort by curve key (:mod:`repro.sfc`), so
nothing in ``src/`` inverts a key.  These inverses are the tests'
oracle for the keys: a key function is a bijection when its inverse
recovers every coordinate, and a Hilbert walk is face-adjacent when
consecutive inverted keys differ by one cell.  Each inverse mirrors the
order convention of the key it inverts.
"""

from __future__ import annotations

import numpy as np

from repro.sfc.curves import _resolve_order

__all__ = [
    "hilbert_inverse",
    "hilbert_inverse_nd",
    "morton_inverse",
    "morton_inverse_nd",
]


def _compact1by1(v: np.ndarray) -> np.ndarray:
    """Gather every second bit of ``v`` into the low 32 bits."""
    v = v & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def _compact1by2(v: np.ndarray) -> np.ndarray:
    """Gather every third bit of ``v`` into the low 21 bits."""
    v = v & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x001F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x001F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x00000000001FFFFF)
    return v


def _compact_bits(v: np.ndarray, ndim: int, order: int) -> np.ndarray:
    """Gather the bits ``ndim`` positions apart (undo the key's spread)."""
    if ndim == 1:
        return v
    if ndim == 2:
        return _compact1by1(v)
    if ndim == 3:
        return _compact1by2(v)
    out = np.zeros_like(v)
    one = np.uint64(1)
    for b in range(order):
        out |= ((v >> np.uint64(b * ndim)) & one) << np.uint64(b)
    return out


def morton_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``morton_key``: keys -> ``(x, y)`` coordinate arrays."""
    keys = np.asarray(keys, dtype=np.uint64)
    x = _compact1by1(keys)
    y = _compact1by1(keys >> np.uint64(1))
    return x.astype(np.int64), y.astype(np.int64)


def morton_inverse_nd(
    keys: np.ndarray, ndim: int, order: int | None = None
) -> tuple[np.ndarray, ...]:
    """Invert ``morton_key_nd``: keys -> per-axis coordinate arrays."""
    order = _resolve_order(order, ndim)
    keys = np.asarray(keys, dtype=np.uint64)
    return tuple(
        _compact_bits(keys >> np.uint64(d), ndim, order).astype(np.int64)
        for d in range(ndim)
    )


def hilbert_inverse(
    keys: np.ndarray, order: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``hilbert_key`` (Lam--Shapiro): keys -> ``(x, y)`` arrays."""
    _resolve_order(order, 2)
    d = np.asarray(keys, dtype=np.uint64).astype(np.int64).copy()
    x = np.zeros(d.shape, dtype=np.int64)
    y = np.zeros(d.shape, dtype=np.int64)
    s = 1
    while s < (1 << order):
        rx = 1 & (d // 2)
        ry = 1 & (d ^ rx)
        # Rotate.
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x_new = np.where(swap, y_f, x_f)
        y_new = np.where(swap, x_f, y_f)
        x = x_new + s * rx
        y = y_new + s * ry
        d //= 4
        s *= 2
    return x, y


def _transpose_to_axes(X: list[np.ndarray], order: int) -> list[np.ndarray]:
    """Skilling TransposeToAxes, vectorized over coordinate arrays."""
    X = [a.copy() for a in X]
    ndim = len(X)
    # Gray decode by H ^ (H >> 1).
    t = X[ndim - 1] >> 1
    for i in range(ndim - 1, 0, -1):
        X[i] = X[i] ^ X[i - 1]
    X[0] = X[0] ^ t
    q = 2
    top = 1 << order
    while q != top:
        p = np.int64(q - 1)
        for i in range(ndim - 1, -1, -1):
            hasbit = (X[i] & q) != 0
            t2 = (X[0] ^ X[i]) & p
            x0_inv = X[0] ^ p
            x0_exch = X[0] ^ t2
            xi_exch = X[i] ^ t2
            if i > 0:
                X[i] = np.where(hasbit, X[i], xi_exch)
            X[0] = np.where(hasbit, x0_inv, x0_exch)
        q <<= 1
    return X


def hilbert_inverse_nd(
    keys: np.ndarray, ndim: int, order: int | None = None
) -> tuple[np.ndarray, ...]:
    """Invert ``hilbert_key_nd``: keys -> per-axis coordinate arrays.

    2-D inverts the Lam--Shapiro fast path, other dimensions the
    Skilling transpose, as ``hilbert_key_nd`` encodes them.
    """
    order = _resolve_order(order, ndim)
    if ndim == 2:
        return hilbert_inverse(keys, order)
    keys = np.asarray(keys, dtype=np.uint64)
    if ndim == 1:
        return (keys.astype(np.int64),)
    X = [
        _compact_bits(keys >> np.uint64(ndim - 1 - i), ndim, order).astype(np.int64)
        for i in range(ndim)
    ]
    axes = _transpose_to_axes(X, order)
    return tuple(a.astype(np.int64) for a in axes)
