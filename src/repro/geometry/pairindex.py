"""Grid-bucket pair pruning: sub-quadratic candidates for the pair kernels.

The owner-map kernels (:func:`~repro.geometry.ownermap.pair_intersections`,
:func:`~repro.geometry.ownermap.face_contacts`,
:func:`~repro.geometry.ownermap.overlap_volume`) are exact sweeps over
*candidate* box pairs.  There is one candidate policy, picked per query
by the size of its pair product:

* **brute force** at or below ``_BRUTE_CUTOFF`` pairs: :func:`candidate_pairs`
  returns ``None`` and the kernel runs its quadratic broadcast.  Most
  queries are this small, and for them the broadcast beats the grid's
  setup cost.
* **grid** above it: boxes are bucketed into a coarse integer grid whose
  cell size is the *median box extent* per axis (so a typical box
  touches O(2^ndim) cells).  Cell incidences are packed into int64 keys
  (mixed-radix over the grid extents) and the two inputs are joined on
  sorted unique keys: only pairs sharing at least one bucket are
  emitted.  Two boxes that intersect (or abut, for the *closed* face
  query) always share a cell, so the candidate set is a superset of the
  exact answer — pruning never changes results.  Mixed scales (a few
  large or long boxes among many small ones) can push the incidences
  past ``_GRID_INCIDENCE_FACTOR`` times the box count; the cell is then
  doubled along the axis whose spans sum highest until they fit.

Candidates are deduplicated and returned in brute-force emission order
(``ai``-major, ``bj``-minor via a sort + dedup on packed pair keys), so
every kernel produces **bit-identical** outputs on either path.  The
brute-force branch is the grid's oracle: tests patch ``_BRUTE_CUTOFF``
to ``-1`` (the grid serves every multi-row query) or to ``10**18``
(brute force serves every query) and assert equal outputs.  The kernels
charge their pruning effectiveness (candidate pairs generated vs. exact
pairs surviving vs. the brute-force product) to the metrics registry's
``repro_pair_*_total`` counters, which the benchmark tables, run
profiles and ``repro report --timings`` all read.
"""

from __future__ import annotations

import numpy as np

from ..telemetry.metrics import PAIR_COUNTER_FIELDS, metrics_registry

__all__ = ["candidate_pairs"]

#: Pair products at or below this run the kernels' brute-force
#: broadcast: for small inputs it beats the grid's setup cost.
_BRUTE_CUTOFF = 16_384

#: Incidence budget: while its cell-incidence lists exceed this factor
#: times the box count (boxes spanning many buckets each), the grid
#: coarsens its cell.
_GRID_INCIDENCE_FACTOR = 32

#: Charges kernel events to the metrics registry's
#: ``repro_pair_<field>_total`` counters (``_record(queries=1, ...)``).
_record = metrics_registry().counter_group(
    "repro_pair_{}_total", PAIR_COUNTER_FIELDS
)


def _record_exact(n: int) -> None:
    """Called by the kernels with the surviving pair count."""
    _record(exact_pairs=int(n))


def _record_brute(n_pairs: int) -> None:
    """Called by the kernels when the brute-force broadcast runs."""
    _record(brute_queries=1, bruteforce_pairs=int(n_pairs))


def _record_brute_query(n_pairs: int) -> None:
    """Called by a kernel whose own broadcast sweeps ``n_pairs`` pairs
    without asking :func:`candidate_pairs`: one brute-force query."""
    _record(
        queries=1,
        pair_product=int(n_pairs),
        brute_queries=1,
        bruteforce_pairs=int(n_pairs),
    )


def candidate_pairs(
    a: np.ndarray, b: np.ndarray, closed: bool = False
) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate ``(ai, bj)`` index pairs of two corner arrays.

    Returns ``None`` when the caller should run its brute-force
    broadcast (a pair product at or below ``_BRUTE_CUTOFF``); otherwise
    two int64 index arrays in canonical brute-force emission order
    (``ai``-major, ``bj``-minor, no duplicates) that are a superset of
    all intersecting pairs.

    ``closed`` treats boxes as closed intervals ``[lo, hi]`` so *abutting*
    boxes also cohabit a bucket — the face-contact query needs touching
    pairs, not just overlapping ones.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    _record(queries=1, pair_product=n_a * n_b)
    if n_a * n_b <= _BRUTE_CUTOFF:
        return None
    if n_a == 0 or n_b == 0:  # reachable only below a zero cutoff
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n_a == 1 or n_b == 1:
        # One-row operand: the interval test along every axis *is* the
        # candidate filter — O(n), no grid to build.
        return _single_candidates(a, b, closed)
    return _grid_candidates(a, b, closed)


def _single_candidates(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Exact candidates when either operand is a single box."""
    ndim = a.shape[1] // 2
    if closed:
        hit = (a[:, None, :ndim] <= b[None, :, ndim:]).all(axis=2)
        hit &= (a[:, None, ndim:] >= b[None, :, :ndim]).all(axis=2)
    else:
        hit = (a[:, None, :ndim] < b[None, :, ndim:]).all(axis=2)
        hit &= (a[:, None, ndim:] > b[None, :, :ndim]).all(axis=2)
    ai, bj = np.nonzero(hit)  # row-major: already ai-major, bj-minor
    _record(candidate_pairs=ai.size)
    return ai.astype(np.int64), bj.astype(np.int64)


def _canonical(ai: np.ndarray, bj: np.ndarray, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Dedup + sort into brute-force emission order (ai-major, bj-minor).

    Explicit sort + neighbour mask instead of :func:`np.unique`: the
    duplicated candidate streams here are an order of magnitude cheaper
    to sort than to hash, and the result is identical.
    """
    if ai.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    packed = ai.astype(np.int64) * np.int64(n_b) + bj
    packed.sort()
    keep = np.empty(packed.size, dtype=bool)
    keep[0] = True
    np.not_equal(packed[1:], packed[:-1], out=keep[1:])
    packed = packed[keep]
    _record(candidate_pairs=packed.size)
    return packed // n_b, packed % n_b


def _sorted_groups(
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique keys, group start, group count)`` of a pre-sorted array.

    Equivalent to ``np.unique(keys, return_index=True,
    return_counts=True)`` but skips the redundant hash/sort pass — the
    callers sorted ``keys`` already.
    """
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return keys[:0], empty, empty
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, keys.size))
    return keys[starts], starts, counts


def _grid_candidates(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket-join candidates (see module docstring for the scheme)."""
    ndim = a.shape[1] // 2
    lo = np.concatenate((a[:, :ndim], b[:, :ndim]))
    hi = np.concatenate((a[:, ndim:], b[:, ndim:]))
    extents = hi - lo
    # Cell size: the median box extent per axis — a typical box then
    # touches at most 2 cells per axis.  max(1, ...) guards thin boxes.
    cell = np.maximum(1, np.median(extents, axis=0).astype(np.int64))
    inclusive_hi = hi if closed else hi - 1
    lo_min, hi_max = lo.min(axis=0), inclusive_hi.max(axis=0)
    reach = hi_max - lo_min + 1
    budget = _GRID_INCIDENCE_FACTOR * (a.shape[0] + b.shape[0]) + 1024
    while True:
        base = lo_min // cell
        dims = hi_max // cell - base + 1
        # int64 key packing must not overflow: grow cells until the grid
        # extent product fits (2 bits of headroom).
        if int(np.prod([int(d) for d in dims])) >= 2**62:
            cell = cell * 2
            continue
        lo_cell = lo // cell - base
        hi_cell = inclusive_hi // cell - base
        spans = hi_cell - lo_cell + 1
        incidences = int(np.prod(spans, axis=1, dtype=np.int64).sum())
        # Mixed scales (a few large or long boxes among many small ones)
        # overflow the incidence budget at the median cell: double the
        # cell along the axis whose spans sum highest, among the axes it
        # does not cover whole yet.  A cell covering its axis leaves every
        # box at most 2 cells along it, so the loop ends.
        weight = np.where(cell < reach, spans.sum(axis=0), 0)
        if incidences <= budget or not weight.any():
            break
        cell[int(np.argmax(weight))] *= 2
    _record(grid_queries=1)
    strides = np.ones(ndim, dtype=np.int64)
    for d in range(ndim - 2, -1, -1):
        strides[d] = strides[d + 1] * dims[d + 1]
    ka, ia = _cell_keys(lo_cell[: a.shape[0]], spans[: a.shape[0]], strides)
    kb, ib = _cell_keys(lo_cell[a.shape[0]:], spans[a.shape[0]:], strides)
    order_a = np.argsort(ka, kind="stable")
    order_b = np.argsort(kb, kind="stable")
    ka, ia = ka[order_a], ia[order_a]
    kb, ib = kb[order_b], ib[order_b]
    ua, start_a, count_a = _sorted_groups(ka)
    ub, start_b, count_b = _sorted_groups(kb)
    _, pa, pb = np.intersect1d(ua, ub, assume_unique=True, return_indices=True)
    if pa.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ca, cb = count_a[pa], count_b[pb]
    sa, sb = start_a[pa], start_b[pb]
    block = ca * cb  # pairs per shared bucket
    starts = np.concatenate(([0], np.cumsum(block)[:-1]))
    total = int(block.sum())
    gid = np.repeat(np.arange(block.size), block)
    t = np.arange(total, dtype=np.int64) - np.repeat(starts, block)
    ai = ia[sa[gid] + t // cb[gid]]
    bj = ib[sb[gid] + t % cb[gid]]
    return _canonical(ai, bj, b.shape[0])


def _cell_keys(
    lo_cell: np.ndarray, spans: np.ndarray, strides: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(packed cell key, box id)`` per (cell, box) incidence.

    Vectorized mixed-radix enumeration: every box emits one row per grid
    cell it touches, keys packed with the global grid strides.
    """
    n, ndim = lo_cell.shape
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    counts = np.prod(spans, axis=1, dtype=np.int64)
    total = int(counts.sum())
    box_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rem = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    keys = np.zeros(total, dtype=np.int64)
    for d in range(ndim - 1, -1, -1):
        radix = spans[box_ids, d]
        keys += (lo_cell[box_ids, d] + rem % radix) * strides[d]
        rem //= radix
    return keys, box_ids
