"""Sparse, patch-aligned owner maps: the rasterless distribution calculus.

An :class:`OwnerMap` represents one level of a distribution as an
``(nboxes, 2*ndim)`` int64 corner array (``[lo..., hi...]`` per row, boxes
pairwise disjoint) plus an int32 owning rank per box.  It replaces the
dense per-level owner rasters of the original simulator core: every
quantity the execution simulator reports — per-rank loads, ghost-exchange
faces, message pairs, inter-level transfers, migration — is computable
from corner arithmetic alone, so simulator cost scales with the number of
patches (O(boxes^2) pair sweeps) instead of the volume of the finest index
space (O(cells) reductions).  That is what makes true paper-scale 3-D
hierarchies (32^3 base, 5 levels of factor-2 refinement — a 512^3 finest
index space) tractable: the densest level raster alone would be half a
gigabyte per distribution, while its owner map is a few thousand corner
rows.

The dense raster representation remains available through
:meth:`OwnerMap.rasterize` / :meth:`OwnerMap.from_raster`; the property
tests keep a dense-raster oracle of every metric and assert sparse ==
dense on random N-D hierarchies.  Equality of owner maps is *semantic*
— two maps are equal when they assign the same rank to the same cells,
regardless of how the region is cut into boxes — so
``from_raster(rasterize(m)) == m`` always holds.

The pair kernels themselves (:func:`pair_intersections`,
:func:`overlap_volume`, :func:`face_contacts`) each run one exact
arithmetic over the pairs
:func:`~repro.geometry.pairindex.candidate_pairs` returns: the pairs
that intersect (or, for faces, touch) in projection on every axis,
never the O(n_a * n_b) product.  A chunked hit matrix finds them for
small queries and a slab sweep for large ones; both return the same
pairs in the same order, so the outputs are bit-identical whichever
path served a query, and the hit matrix is the sweep's test oracle.
:func:`matched_volume`, behind the migration and inter-level metrics,
runs its own broadcast instead: every same-rank pair in one sweep over
rank-padded corner blocks, whatever the brute-force cutoff, with one
query per rank as its fallback and oracle.  The overlay engine cuts each
hole round's pieces in one gather through a fixed table of source
columns: :func:`overlay_corners` asks one pair query which boxes
overlap, and :func:`overlay_pairs` serves a caller that already holds
those pairs.  :func:`split_in_scan_order` cuts a region at its ``k``-th
cell in row-major order, the sparse ``np.flatnonzero(mask)[:k]``: one
walk over the axes finds that cell, and the region is clipped against
the at most ``ndim`` boxes of the grid's scan prefix
(:func:`prefix_corners`) and suffix (:func:`suffix_corners`) there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .box import Box
from .pairindex import _record_brute_query, _record_exact, candidate_pairs
from .raster import NO_OWNER, paint_box

__all__ = [
    "OwnerMap",
    "box_corners",
    "cell_boxes",
    "corner_volumes",
    "pair_intersections",
    "face_contacts",
    "matched_volume",
    "overlap_volume",
    "overlay_corners",
    "overlay_pairs",
    "prefix_corners",
    "suffix_corners",
    "split_in_scan_order",
]

#: Padded-cell budget of :func:`matched_volume`'s one-broadcast sweep
#: (ranks x deepest rank group of ``a`` x deepest of ``b``; 2 MB per
#: int64 temporary).  Larger blocks fall back to one query per rank.
_RANK_PAD_CELLS = 1 << 18


def box_corners(boxes: Iterable[Box], ndim: int | None = None) -> np.ndarray:
    """Stack boxes into an ``(n, 2*ndim)`` int64 corner array."""
    rows = [tuple(b.lo) + tuple(b.hi) for b in boxes]
    if not rows:
        if ndim is None:
            raise ValueError("cannot infer ndim from an empty box sequence")
        return np.empty((0, 2 * ndim), dtype=np.int64)
    out = np.asarray(rows, dtype=np.int64)
    if ndim is not None and out.shape[1] != 2 * ndim:
        raise ValueError(
            f"expected {ndim}-d boxes, got corner rows of width {out.shape[1]}"
        )
    return out


def corner_volumes(corners: np.ndarray) -> np.ndarray:
    """Cell count of every corner row (int64, shape ``(n,)``)."""
    ndim = corners.shape[1] // 2
    widths = corners[:, ndim:] - corners[:, :ndim]
    return np.prod(widths, axis=1, dtype=np.int64)


def _pair_corners(
    a: np.ndarray, b: np.ndarray, ai: np.ndarray, bj: np.ndarray
) -> np.ndarray:
    """Intersection corner rows of the pairs ``(a[ai], b[bj])``: the max
    of the lo halves, the min of the hi halves (a row is empty, or
    inverted, where the pair does not intersect)."""
    ndim = a.shape[1] // 2
    rows_a, rows_b = a[ai], b[bj]
    corners = np.maximum(rows_a, rows_b)
    np.minimum(rows_a[:, ndim:], rows_b[:, ndim:], out=corners[:, ndim:])
    return corners


def pair_intersections(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All non-empty pairwise intersections of two corner arrays.

    Returns ``(corners, ai, bj)``: the intersection corner rows plus the
    source row index into ``a`` and ``b`` for each (so callers can carry
    ranks or other per-box payloads through the intersection).

    Pairs are emitted in ``ai``-major, ``bj``-minor order, the order of
    :func:`~repro.geometry.pairindex.candidate_pairs` on either of its
    paths (hit matrix or slab sweep).
    """
    ndim = a.shape[1] // 2
    ai, bj = candidate_pairs(a, b)
    corners = _pair_corners(a, b, ai, bj)
    # The interval test passes flat and inverted rows too; an
    # intersection is non-empty only where hi > lo on every axis.
    keep = (corners[:, ndim:] > corners[:, :ndim]).all(axis=1)
    _record_exact(np.count_nonzero(keep))
    return corners[keep], ai[keep], bj[keep]


def overlap_volume(a: np.ndarray, b: np.ndarray) -> int:
    """``sum_ij |a_i ∩ b_j|`` over two corner arrays (rank-agnostic)."""
    ndim = a.shape[1] // 2
    corners = _pair_corners(a, b, *candidate_pairs(a, b))
    width = np.maximum(corners[:, ndim:] - corners[:, :ndim], 0)
    vol = np.prod(width, axis=1, dtype=np.int64)
    _record_exact(np.count_nonzero(vol))
    return int(vol.sum())


def _rank_blocks(
    corners: np.ndarray, labels: np.ndarray, nranks: int, depth: int
) -> np.ndarray:
    """``(2*ndim, nranks, depth)`` corner block: corner row ``i`` goes to
    rank ``labels[i]``, after the earlier rows of that rank; every other
    slot holds the empty box ``lo = 1``, ``hi = 0``."""
    ndim = corners.shape[1] // 2
    block = np.empty((2 * ndim, nranks, depth), dtype=np.int64)
    block[:ndim] = 1
    block[ndim:] = 0
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.searchsorted(sorted_labels, np.arange(nranks))
    slots = np.arange(labels.size) - starts[sorted_labels]
    block[:, sorted_labels, slots] = corners[order].T
    return block


def matched_volume(
    a: np.ndarray,
    a_ranks: np.ndarray,
    b: np.ndarray,
    b_ranks: np.ndarray,
) -> int:
    """``sum |a_i ∩ b_j|`` over pairs with *equal* ranks.

    Both operands are scattered into rank-padded corner blocks, one row
    per rank label, as deep as that operand's largest rank group, and
    the pad slots hold empty boxes.  One broadcast per axis then sums
    every same-rank intersection at once: cross-rank pairs are never
    formed, and the whole sweep is one pair query whose product is
    ``sum_r n_a,r * n_b,r``, charged as one brute-force query.  A block
    beyond ``_RANK_PAD_CELLS`` padded cells (many ranks, or one rank
    holding most of either operand) runs one :func:`overlap_volume`
    query per shared rank instead; that loop is the block's oracle.
    Either way the sum is exact.
    """
    n_a = a.shape[0]
    if n_a == 0 or b.shape[0] == 0:
        return 0
    ranks, labels = np.unique(
        np.concatenate((a_ranks, b_ranks)), return_inverse=True
    )
    labels_a, labels_b = labels[:n_a], labels[n_a:]
    count_a = np.bincount(labels_a, minlength=ranks.size)
    count_b = np.bincount(labels_b, minlength=ranks.size)
    depth_a, depth_b = int(count_a.max()), int(count_b.max())
    if ranks.size * depth_a * depth_b > _RANK_PAD_CELLS:
        total = 0
        for r in np.flatnonzero((count_a > 0) & (count_b > 0)):
            total += overlap_volume(a[labels_a == r], b[labels_b == r])
        return total
    pairs = int(count_a @ count_b)
    if pairs == 0:  # no shared rank: the loop would query nothing
        return 0
    _record_brute_query(pairs)
    ndim = a.shape[1] // 2
    block_a = _rank_blocks(a, labels_a, ranks.size, depth_a)[:, :, :, None]
    block_b = _rank_blocks(b, labels_b, ranks.size, depth_b)[:, :, None, :]
    vol = None
    for d in range(ndim):
        width = np.minimum(block_a[ndim + d], block_b[ndim + d])
        width -= np.maximum(block_a[d], block_b[d])
        np.maximum(width, 0, out=width)
        if vol is None:
            vol = width
        else:
            vol *= width
    return int(vol.sum())


def face_contacts(
    corners: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abutting-face areas between boxes owned by *different* ranks.

    For every ordered pair ``(i, j)`` with ``hi_i[d] == lo_j[d]`` along
    some axis ``d`` and overlapping extents in every other axis, emits one
    entry ``(ranks[i], ranks[j], shared face area)``.  Each geometric face
    between two boxes appears exactly once (two disjoint boxes can abut
    along at most one axis with positive cross-section).  This is the
    sparse counterpart of counting unequal-owner cell faces on a raster.
    """
    ndim = corners.shape[1] // 2
    lo = corners[:, :ndim]
    hi = corners[:, ndim:]
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_area: list[np.ndarray] = []
    # Touching boxes do not *intersect*, so the face query needs the
    # closed-interval candidate set, in which abutting pairs pair too;
    # one array as both operands makes it the sweep's cheaper self-join.
    # One candidate pass serves all ndim axis filters, each emitting its
    # contacts in the candidates' order (ai-major, bj-minor).
    ai, bj = candidate_pairs(corners, corners, closed=True)
    rank_differs = ranks[ai] != ranks[bj]
    for d in range(ndim):
        sel = (hi[ai, d] == lo[bj, d]) & rank_differs
        if not sel.any():
            continue
        ii, jj = ai[sel], bj[sel]
        area = np.ones(ii.size, dtype=np.int64)
        for e in range(ndim):
            if e == d:
                continue
            width = np.minimum(hi[ii, e], hi[jj, e]) - np.maximum(
                lo[ii, e], lo[jj, e]
            )
            area *= np.clip(width, 0, None)
        keep = area > 0
        if keep.any():
            out_a.append(ranks[ii[keep]])
            out_b.append(ranks[jj[keep]])
            out_area.append(area[keep])
    _record_exact(sum(x.size for x in out_a))
    if not out_a:
        empty32 = np.empty(0, dtype=np.int32)
        return empty32, empty32, np.empty(0, dtype=np.int64)
    return (
        np.concatenate(out_a),
        np.concatenate(out_b),
        np.concatenate(out_area),
    )


def _subtract_groups(
    rows: np.ndarray, holes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``rows[g] \\ holes[offsets[g]:offsets[g+1]]`` for all groups.

    Runs the dimension-sweep decomposition of :meth:`Box.subtract` for
    *all* groups at once, one vectorized pass per hole position: a
    validity mask over every fragment's ``2*ndim + 1`` slots, one
    ``np.nonzero``, and two gathers (the valid pieces' corners through
    :func:`_slot_sources`, their group ids).  Fragments come out in
    exactly the order a sequential :meth:`Box.subtract` sweep over each
    group's holes would emit them (below/above per axis,
    parent-major), so callers see the same corner rows in the same
    order; the tests hold it to that sweep.

    Returns ``(fragment_rows, group_ids)`` with groups in ascending order.
    """
    g, width = rows.shape
    ndim = width // 2
    counts = np.diff(offsets)
    sources = _slot_sources(ndim)
    frags = rows.copy()
    gid = np.arange(g, dtype=np.int64)
    done: list[np.ndarray] = []
    done_gid: list[np.ndarray] = []
    k = 0
    while gid.size:
        alive = counts[gid] > k
        if not alive.all():
            fin = ~alive
            done.append(frags[fin])
            done_gid.append(gid[fin])
            frags, gid = frags[alive], gid[alive]
            if gid.size == 0:
                break
        h = holes[offsets[gid] + k]
        inter_lo = np.maximum(frags[:, :ndim], h[:, :ndim])
        inter_hi = np.minimum(frags[:, ndim:], h[:, ndim:])
        hit = (inter_lo < inter_hi).all(axis=1)
        # Slot 0 carries a missed fragment through unchanged; slots
        # 2d+1 / 2d+2 are the below / above pieces of the axis-d sweep.
        # np.nonzero walks the mask fragment-major, slot-minor, which is
        # the sequential emission order.
        valid = np.empty((gid.size, 2 * ndim + 1), dtype=bool)
        valid[:, 0] = ~hit
        np.less(frags[:, :ndim], inter_lo, out=valid[:, 1::2])
        np.less(inter_hi, frags[:, ndim:], out=valid[:, 2::2])
        valid[:, 1:] &= hit[:, None]
        fi, si = np.nonzero(valid)
        src = np.concatenate((frags, inter_lo, inter_hi), axis=1)
        frags = src[fi[:, None], sources[si]]
        gid = gid[fi]
        k += 1
    if not done_gid:
        return (
            np.empty((0, width), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    out = np.concatenate(done)
    gids = np.concatenate(done_gid)
    order = np.argsort(gids, kind="stable")
    return out[order], gids[order]


@lru_cache(maxsize=None)
def _slot_sources(ndim: int) -> np.ndarray:
    """``(2*ndim + 1, 2*ndim)`` source columns of every subtraction slot.

    A fragment's source row is ``[frag lo, frag hi, inter lo, inter hi]``
    (``inter`` its intersection with the hole).  Slot 0 is the fragment.
    The axis-``d`` pieces (slot ``2d+1`` below the hole, ``2d+2``
    above it) take the intersection's extent on every axis before
    ``d``, the fragment's on every axis after it, and along ``d`` the
    gap between the fragment's and the hole's faces.
    """
    axes = np.arange(ndim)
    frag_lo, frag_hi = axes, axes + ndim
    inter_lo, inter_hi = axes + 2 * ndim, axes + 3 * ndim
    slots = [np.concatenate((frag_lo, frag_hi))]
    for d in range(ndim):
        lo = np.where(axes < d, inter_lo, frag_lo)
        hi = np.where(axes < d, inter_hi, frag_hi)
        below_hi, above_lo = hi.copy(), lo.copy()
        below_hi[d], above_lo[d] = inter_lo[d], inter_hi[d]
        slots += [np.concatenate((lo, below_hi)), np.concatenate((above_lo, hi))]
    return np.stack(slots)


def overlay_corners(
    top: np.ndarray,
    top_ranks: np.ndarray,
    bottom: np.ndarray,
    bottom_ranks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Compose two disjoint-box layers; ``top`` wins where both cover.

    Returns corner rows and ranks of the union region: every ``top`` box
    verbatim plus the fragments of ``bottom`` boxes outside ``top``.
    One pair query finds which boxes overlap, and :func:`overlay_pairs`
    cuts the covered ``bottom`` boxes.
    """
    if bottom.shape[0] == 0:
        return top.copy(), top_ranks.copy()
    if top.shape[0] == 0:
        return bottom.copy(), bottom_ranks.copy()
    _, bi, tj = pair_intersections(bottom, top)
    return overlay_pairs(top, top_ranks, bottom, bottom_ranks, bi, tj)


def overlay_pairs(
    top: np.ndarray,
    top_ranks: np.ndarray,
    bottom: np.ndarray,
    bottom_ranks: np.ndarray,
    bi: np.ndarray,
    tj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`overlay_corners` for a caller that already holds the pairs.

    ``(bi, tj)`` must list every overlapping ``(bottom row, top row)``
    pair, in any order.  Returns the ``top`` rows, then the ``bottom``
    rows no pair names, then the fragments of the covered ``bottom``
    rows, all cut in one :func:`_subtract_groups` sweep.
    """
    covered = np.zeros(bottom.shape[0], dtype=bool)
    covered[bi] = True
    out_c: list[np.ndarray] = [top, bottom[~covered]]
    out_r: list[np.ndarray] = [top_ranks, bottom_ranks[~covered]]
    if bi.size:
        order = np.argsort(bi, kind="stable")
        bi, tj = bi[order], tj[order]
        starts = np.flatnonzero(np.diff(bi, prepend=-1))
        # One vectorized sweep fragments every covered bottom box at once.
        frags, fgid = _subtract_groups(
            bottom[bi[starts]], top[tj], np.append(starts, bi.size)
        )
        if frags.shape[0]:
            out_c.append(frags)
            out_r.append(bottom_ranks[bi[starts]][fgid])
    return np.concatenate(out_c), np.concatenate(out_r)


def _merge_abutting(
    corners: np.ndarray, ranks: np.ndarray, axis: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Join same-rank boxes that abut along ``axis`` over an equal
    cross-section; ``None`` when no two rows join.

    Rows are lexsorted by rank, by their extents on the other axes and
    by ``lo`` along ``axis``, so every joinable chain is a run of
    consecutive rows where one box's ``hi`` equals the next box's ``lo``.
    Each run becomes one row: its first box stretched to its last box's
    ``hi``.  Disjoint rows make the runs maximal along ``axis``.
    """
    n = corners.shape[0]
    ndim = corners.shape[1] // 2
    others = [e for e in range(ndim) if e != axis] + [
        ndim + e for e in range(ndim) if e != axis
    ]
    # np.lexsort sorts by its last key first.
    keys = [corners[:, axis]] + [corners[:, k] for k in reversed(others)]
    order = np.lexsort(keys + [ranks])
    c = corners[order]
    r = ranks[order]
    joins = (r[1:] == r[:-1]) & (c[1:, axis] == c[:-1, ndim + axis])
    for k in others:
        joins &= c[1:, k] == c[:-1, k]
    if not joins.any():
        return None
    starts = np.flatnonzero(np.concatenate(([True], ~joins)))
    last = np.append(starts[1:], n) - 1
    out = c[starts]
    out[:, ndim + axis] = c[last, ndim + axis]
    return out, r[starts]


def _coalesce_rows(
    corners: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge same-rank boxes, one axis at a time, until every axis is
    settled (a pass along it merges nothing); the input arrays come back
    when nothing merged.

    The one merge behind :meth:`OwnerMap.coalesced` and
    :func:`cell_boxes`.
    """
    ndim = corners.shape[1] // 2
    settled: set[int] = set()
    axis = 0
    while len(settled) < ndim and corners.shape[0] > 1:
        joined = _merge_abutting(corners, ranks, axis)
        if joined is None:
            settled.add(axis)
        else:
            corners, ranks = joined
            settled = {axis}
        axis = (axis + 1) % ndim
    return corners, ranks


def cell_boxes(
    coords: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labelled cells as disjoint boxes of one label each.

    ``coords`` is ``(k, ndim)`` integer cell coordinates (any order, no
    duplicates) and ``labels`` one integer per cell.  Returns
    ``(corners, labels)``: ``(nboxes, 2*ndim)`` int64 rows whose union is
    exactly the given cells, and the label of each row.  Cells first join
    into maximal same-label runs along the last axis, then the runs merge
    through :func:`_coalesce_rows`.  The runs come from one row-major
    sort of the cells themselves: merging one unit box per cell instead
    would sort twice the keys and hold twice the memory.  The sort key is
    each cell's flat row-major index within the cells' bounding box, and
    a stable sort of it runs in linear time on cells that already arrive
    in row-major order, as every caller's do.  This is how the
    partitioners turn labelled units into owner-map boxes, and how
    :meth:`OwnerMap.from_raster` lifts a dense raster.
    """
    coords = np.asarray(coords, dtype=np.int64)
    labels = np.asarray(labels)
    if coords.ndim != 2 or coords.shape[1] < 1:
        raise ValueError(f"coords must be (k, ndim >= 1), got {coords.shape}")
    if labels.shape != coords.shape[:1]:
        raise ValueError(
            f"{labels.shape} labels do not match {coords.shape[0]} cells"
        )
    k, ndim = coords.shape
    if k == 0:
        return np.empty((0, 2 * ndim), dtype=np.int64), labels
    key = np.zeros(k, dtype=np.int64)
    for col in coords.T:
        lo = col.min()
        key *= col.max() - lo + 1
        key += col - lo
    order = np.argsort(key, kind="stable")
    c, labels = coords[order], labels[order]
    start = np.ones(k, dtype=bool)
    start[1:] = (
        (labels[1:] != labels[:-1])
        | (c[1:, :-1] != c[:-1, :-1]).any(axis=1)
        | (c[1:, -1] != c[:-1, -1] + 1)
    )
    starts = np.flatnonzero(start)
    ends = np.append(starts[1:], k)
    corners = np.concatenate((c[starts], c[ends - 1] + 1), axis=1)
    return _coalesce_rows(corners, labels[starts])


def _scan_digits(shape: tuple[int, ...], count: int) -> list[int] | None:
    """Mixed-radix digits of ``count`` over a row-major grid: the
    coordinates of the cell with flat index ``count``, or ``None`` when
    ``count`` is the grid's cell count."""
    digits = []
    for s in reversed(shape):
        digits.append(count % s)
        count //= s
    return None if count else digits[::-1]


def prefix_corners(shape: Sequence[int], count: int) -> np.ndarray:
    """The first ``count`` cells of a row-major grid as <= ndim boxes.

    The region ``{cells with flat C-order index < count}`` decomposes into
    at most one box per dimension (full slabs, then partial rows of the
    boundary cell's mixed-radix digits), in scan order.
    """
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    total = int(np.prod(shape, dtype=np.int64))
    count = max(0, min(int(count), total))
    if count == 0:
        return np.empty((0, 2 * ndim), dtype=np.int64)
    digits = _scan_digits(shape, count)
    if digits is None:
        return np.asarray([[0] * ndim + list(shape)], dtype=np.int64)
    rows: list[list[int]] = []
    for d in range(ndim):
        if digits[d] == 0:
            continue
        lo = digits[:d] + [0] * (ndim - d)
        hi = [x + 1 for x in digits[:d]] + [digits[d]] + list(shape[d + 1 :])
        rows.append(lo + hi)
    return np.asarray(rows, dtype=np.int64)


def suffix_corners(shape: Sequence[int], count: int) -> np.ndarray:
    """Every cell of a row-major grid after the first ``count``, as
    <= ndim boxes: the complement of :func:`prefix_corners`.

    The region ``{cells with flat C-order index >= count}`` is the rest
    of the boundary cell's row, then the later partial slabs of each
    outer axis, innermost first, so the rows too come in scan order.
    """
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    total = int(np.prod(shape, dtype=np.int64))
    count = max(0, min(int(count), total))
    if count == 0:
        return np.asarray([[0] * ndim + list(shape)], dtype=np.int64)
    digits = _scan_digits(shape, count)
    if digits is None:
        return np.empty((0, 2 * ndim), dtype=np.int64)
    rows: list[list[int]] = []
    for d in reversed(range(ndim)):
        # The boundary cell itself starts the innermost row.
        first = digits[d] + (d < ndim - 1)
        if first == shape[d]:
            continue
        lo = digits[:d] + [first] + [0] * (ndim - d - 1)
        hi = [x + 1 for x in digits[:d]] + list(shape[d:])
        rows.append(lo + hi)
    return np.asarray(rows, dtype=np.int64)


def _scan_index(corners: np.ndarray, shape: Sequence[int], k: int) -> int:
    """Smallest ``t`` whose scan prefix ``prefix_corners(shape, t)``
    holds ``k`` cells of the region ``corners`` (disjoint rows,
    ``1 <= k <= `` the region's cell count).

    One walk over the axes finds the region's ``k``-th cell in row-major
    order.  Along axis ``d`` the rows still in play all cover the slabs
    the walk chose on the earlier axes, so each adds its cross-section
    over the later axes to every slab it spans: one scatter of those
    cross-sections at the rows' ``lo`` and ``hi`` and one prefix sum give
    the region's cells per slab, and a second prefix sum names the slab
    that holds the ``k``-th cell.  The walk keeps that slab's rows and
    the rank of the cell among the slab's cells, and moves to the next
    axis.  ``t`` is the cell's flat index plus one.
    """
    ndim = len(shape)
    lo, hi = corners[:, :ndim], corners[:, ndim:]
    t = 0
    for d, extent in enumerate(shape):
        cross = np.prod(hi[:, d + 1 :] - lo[:, d + 1 :], axis=1, dtype=np.int64)
        edges = np.zeros(extent + 1, dtype=np.int64)
        np.add.at(edges, lo[:, d], cross)
        np.add.at(edges, hi[:, d], -cross)
        before = np.cumsum(np.cumsum(edges[:-1]))
        slab = int(np.searchsorted(before, k))
        if slab:
            k -= int(before[slab - 1])
        t = t * extent + slab
        spans = (lo[:, d] <= slab) & (slab < hi[:, d])
        lo, hi = lo[spans], hi[spans]
    return t + 1


def _clip(corners: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-empty intersections of every corner row with a few disjoint
    ``rows``, corner-major, plus the corner row each came from."""
    ndim = corners.shape[1] // 2
    lo = np.maximum(corners[:, None, :ndim], rows[None, :, :ndim])
    hi = np.minimum(corners[:, None, ndim:], rows[None, :, ndim:])
    ci, ri = np.nonzero((hi > lo).all(axis=2))
    return np.concatenate((lo[ci, ri], hi[ci, ri]), axis=1), ci


def split_in_scan_order(
    corners: np.ndarray, shape: Sequence[int], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a region at its ``k``-th cell in row-major scan order.

    ``corners`` must be internally disjoint rows inside ``[0, shape)``.
    Returns ``(chosen, chosen_src, rest, rest_src)``: the region's first
    ``k`` cells and its remaining cells as corner rows, each row with the
    index of the input row it was cut from (so callers can carry per-box
    payloads such as destination ranks).  The sparse equivalent of
    ``np.flatnonzero(mask)[:k]`` and ``[k:]`` on a raster: one walk over
    the axes (:func:`_scan_index`) finds the scan index that ends the
    ``k``-th cell, and the region is clipped against the at most
    ``ndim`` rows of :func:`prefix_corners` and of
    :func:`suffix_corners` there.
    """
    everything = np.arange(corners.shape[0], dtype=np.int64)
    none = (np.empty((0, corners.shape[1]), dtype=np.int64), everything[:0])
    if k <= 0:
        return none + (corners.copy(), everything)
    if k >= int(corner_volumes(corners).sum()):
        return (corners.copy(), everything) + none
    t = _scan_index(corners, shape, k)
    return _clip(corners, prefix_corners(shape, t)) + _clip(
        corners, suffix_corners(shape, t)
    )


class OwnerMap:
    """One level's distribution as disjoint owned boxes with ranks.

    Parameters
    ----------
    shape :
        Extents of the level's index space (the domain ``[0, shape)``).
    corners :
        ``(nboxes, 2*ndim)`` int64 rows ``[lo..., hi...]``; boxes must be
        non-empty, inside the domain and pairwise disjoint (the latter is
        the caller's responsibility, as with :class:`~repro.geometry.BoxList`;
        :meth:`validate_disjoint` checks it explicitly).
    ranks :
        Owning rank per box (coerced to int32, must be ``>= 0``).
    """

    __slots__ = ("shape", "corners", "ranks")

    def __init__(
        self,
        shape: Sequence[int],
        corners: np.ndarray,
        ranks: np.ndarray | Sequence[int],
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        ndim = len(self.shape)
        if ndim < 1 or any(s < 1 for s in self.shape):
            raise ValueError(f"owner-map shape must be positive, got {shape}")
        corners = np.ascontiguousarray(corners, dtype=np.int64)
        if corners.ndim != 2 or corners.shape[1] != 2 * ndim:
            raise ValueError(
                f"corners must be (nboxes, {2 * ndim}) for a {ndim}-d map, "
                f"got {corners.shape}"
            )
        ranks = np.ascontiguousarray(ranks, dtype=np.int32)
        if ranks.shape != (corners.shape[0],):
            raise ValueError(
                f"ranks shape {ranks.shape} does not match "
                f"{corners.shape[0]} boxes"
            )
        if corners.shape[0]:
            lo = corners[:, :ndim]
            hi = corners[:, ndim:]
            if (hi <= lo).any():
                raise ValueError("owner-map boxes must be non-empty")
            if (lo < 0).any() or (hi > np.asarray(self.shape)).any():
                raise ValueError("owner-map boxes must lie inside the domain")
            if (ranks < 0).any():
                raise ValueError("owner ranks must be >= 0")
        self.corners = corners
        self.ranks = ranks

    # -- construction ------------------------------------------------------
    @staticmethod
    def empty(shape: Sequence[int]) -> "OwnerMap":
        """A map owning no cells."""
        ndim = len(tuple(shape))
        return OwnerMap(
            shape,
            np.empty((0, 2 * ndim), dtype=np.int64),
            np.empty(0, dtype=np.int32),
        )

    @staticmethod
    def from_assignments(
        assignments: Iterable[tuple[Box, int]], domain: Box
    ) -> "OwnerMap":
        """Build from ``(box, rank)`` pairs over an origin-anchored domain."""
        if any(l != 0 for l in domain.lo):
            raise ValueError("owner-map domains must be anchored at the origin")
        rows: list[tuple[int, ...]] = []
        ranks: list[int] = []
        for box, rank in assignments:
            if rank < 0:
                raise ValueError(f"owner ranks must be >= 0, got {rank}")
            clipped = box.intersect(domain)
            if clipped is None:
                continue
            rows.append(tuple(clipped.lo) + tuple(clipped.hi))
            ranks.append(int(rank))
        return OwnerMap(
            domain.shape,
            np.asarray(rows, dtype=np.int64).reshape(len(rows), 2 * domain.ndim),
            np.asarray(ranks, dtype=np.int32),
        )

    @staticmethod
    def from_raster(raster: np.ndarray) -> "OwnerMap":
        """Decompose a dense integer owner raster (``NO_OWNER`` background)."""
        raster = np.asarray(raster)
        if not np.issubdtype(raster.dtype, np.integer):
            raise ValueError(f"owner rasters must be integer, got {raster.dtype}")
        owned = raster != NO_OWNER
        corners, ranks = cell_boxes(np.argwhere(owned), raster[owned])
        return OwnerMap(raster.shape, corners, ranks)

    # -- queries -----------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Spatial dimensionality."""
        return len(self.shape)

    @property
    def nboxes(self) -> int:
        """Number of owned boxes."""
        return self.corners.shape[0]

    @property
    def ncells(self) -> int:
        """Total owned cells."""
        return int(corner_volumes(self.corners).sum())

    def boxes(self) -> Iterator[tuple[Box, int]]:
        """Iterate ``(box, rank)`` pairs."""
        ndim = self.ndim
        for row, rank in zip(self.corners, self.ranks):
            yield Box(tuple(row[:ndim]), tuple(row[ndim:])), int(rank)

    def rank_cell_counts(self, nprocs: int) -> np.ndarray:
        """Owned cells per rank (int64, length ``nprocs``)."""
        counts = np.zeros(nprocs, dtype=np.int64)
        if self.nboxes:
            np.add.at(counts, self.ranks, corner_volumes(self.corners))
        return counts

    def validate_disjoint(self) -> None:
        """Raise ``ValueError`` if any two owned boxes overlap."""
        if self.nboxes < 2:
            return
        _, ii, jj = pair_intersections(self.corners, self.corners)
        if (ii != jj).any():
            a, b = ii[ii != jj][0], jj[ii != jj][0]
            raise ValueError(
                f"overlapping owner boxes: rows {int(a)} and {int(b)}"
            )

    # -- transforms --------------------------------------------------------
    def coalesced(self) -> "OwnerMap":
        """The same map in fewer boxes: same-rank neighbours merged.

        Merges boxes that abut along one axis over an equal
        cross-section, one axis at a time, until every axis is settled
        (a pass along it merges nothing): :func:`_coalesce_rows`, the
        merge :func:`cell_boxes` ends with too.  The result is ``==`` to
        this map; ``self`` comes back when nothing merged.  Every pair
        kernel's cost grows with the box count, and clipping and overlays
        cut a partitioner's regions into more boxes than they need.
        """
        corners, ranks = _coalesce_rows(self.corners, self.ranks)
        if corners is self.corners:
            return self
        return OwnerMap(self.shape, corners, ranks)

    def refine(self, ratio: int) -> "OwnerMap":
        """Map to the index space refined by ``ratio``."""
        if ratio < 1:
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        return OwnerMap(
            tuple(s * ratio for s in self.shape),
            self.corners * ratio,
            self.ranks,
        )

    def rasterize(self) -> np.ndarray:
        """Dense int32 owner raster (``NO_OWNER`` outside owned boxes)."""
        out = np.full(self.shape, NO_OWNER, dtype=np.int32)
        for box, rank in self.boxes():
            paint_box(out, box, rank)
        return out

    # -- comparison --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OwnerMap):
            return NotImplemented
        if self.shape != other.shape:
            return False
        mine = self.ncells
        if mine != other.ncells:
            return False
        # Same cells, same ranks: every owned cell must land in an
        # equal-rank box of the other map (both internally disjoint).
        return (
            matched_volume(self.corners, self.ranks, other.corners, other.ranks)
            == mine
        )

    def __hash__(self) -> int:  # semantic equality forbids structural hash
        return hash((self.shape, self.ncells))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OwnerMap(shape={self.shape}, {self.nboxes} boxes, "
            f"{self.ncells} cells)"
        )
