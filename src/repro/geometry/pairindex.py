"""Exact candidate pairs of the pair kernels: hit matrix or slab sweep.

The owner-map kernels (:func:`~repro.geometry.ownermap.pair_intersections`,
:func:`~repro.geometry.ownermap.face_contacts`,
:func:`~repro.geometry.ownermap.overlap_volume`) run one exact
arithmetic each over the ``(ai, bj)`` box pairs :func:`candidate_pairs`
returns: exactly the pairs that pass the interval test ``lo_a < hi_b``
and ``lo_b < hi_a`` on every axis (``<=`` for a closed query), in
``ai``-major, ``bj``-minor order.  Two ways find them, picked per query
by the size of its pair product:

* **hit matrix** at or below ``_BRUTE_CUTOFF`` pairs, or when an
  operand has at most one row: the interval test on every pair, one
  axis at a time on boolean ``(rows, n_b)`` blocks of at most
  ``_CHUNK_PAIRS`` pairs, and ``np.nonzero`` of each block.  Most
  queries are this small, and for them the test beats the sweep's
  setup cost.  A one-row operand is tested against every row of the
  other directly, with no slabs to build.
* **slab sweep** above it.  The *sweep axis* ``d`` is the axis along
  which the fewest pairs overlap in projection (counted exactly, with
  two sorts and two binary searches per axis); the *slab axis* ``e`` is
  the next one.  Space is cut into slabs along ``e``, as wide as the
  median box extent there, doubled until the boxes' slab incidences (one
  per slab a box spans) fit in ``_SLAB_INCIDENCE_FACTOR`` times the box
  count.  Within a slab the incidences are sorted by ``lo[d]``, and each
  overlapping pair is one binary-search range: the ``b`` rows starting
  in ``[lo_a, hi_a)`` of an ``a`` row (case 1), or the ``a`` rows
  starting in ``(lo_b, hi_b)`` of a ``b`` row (case 2).  A *closed*
  query (boxes as ``[lo, hi]``, so that abutting boxes pair too, as the
  face query needs) closes both ranges at the top.  The two cases run as
  one: the ``b`` rows' sort keys (slab, then ``lo[d]``) move above every
  ``a`` row's, so one sort and two binary searches give every range.

**Each pair is emitted once.**  Within a slab the two cases are
disjoint: case 1 holds the pairs with ``lo_a[d] <= lo_b[d]``, case 2
those with ``lo_b[d] < lo_a[d]``.  Across slabs, a pair is kept only in
its *reference slab*, the one holding ``max(lo_a[e], lo_b[e])``, which
both boxes span whenever they overlap along ``e``.  The interval test
on the remaining axes then leaves exactly the pairs of the hit matrix,
so no dedup pass is needed: one sort of the packed key ``ai * n_b + bj``
gives the hit matrix's order, and the two paths return the same arrays.
The ranges expand in chunks of at most ``_CHUNK_PAIRS`` pairs, so a
query's memory stays bounded on either path.

**Self-joins.**  When both operands are the same array (``a is b``: every
:func:`~repro.geometry.ownermap.face_contacts` query and
``OwnerMap.validate_disjoint``), case 2 is case 1 mirrored: the join
runs case 1 alone and adds ``(bj, ai)`` for every pair with
``lo_b[d] > lo_a[d]``, which halves the work.

**The seam.**  The hit matrix is the sweep's oracle: tests patch
``_BRUTE_CUTOFF`` to ``-1`` (the sweep serves every query whose
operands both hold two rows or more) or to ``10**18`` (the hit matrix
serves every query) and assert equal outputs.  The seam decides only
how the candidates are found: both paths feed the kernels' one
arithmetic.  The kernels charge their pruning effectiveness (pairs
examined by the hit matrix or emitted by the sweep vs. exact pairs
surviving vs. the brute-force product) to the metrics registry's
``repro_pair_*_total`` counters, which the benchmark tables, run
profiles and ``repro report --timings`` all read.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..telemetry.metrics import PAIR_COUNTER_FIELDS, metrics_registry

__all__ = ["candidate_pairs"]

#: Pair products at or below this take the hit matrix: for small
#: inputs it beats the slab sweep's setup cost.
_BRUTE_CUTOFF = 16_384

#: Incidence budget: while the boxes span more slabs in all than this
#: factor times their count, the slab width doubles.  2 beat 3 and 4 on
#: the pair queries of a ``deep3d`` pass: fewer incidences to sort and
#: search outweigh the extra pairs the interval test then drops.
_SLAB_INCIDENCE_FACTOR = 2

#: Pairs one hit-matrix block or one sweep range expansion holds at
#: most (2 MB per boolean block, 16 MB per int64 temporary).
_CHUNK_PAIRS = 1 << 21

#: Charges kernel events to the metrics registry's
#: ``repro_pair_<field>_total`` counters (``_record(queries=1, ...)``).
_record = metrics_registry().counter_group(
    "repro_pair_{}_total", PAIR_COUNTER_FIELDS
)


def _record_exact(n: int) -> None:
    """Called by the kernels with the surviving pair count."""
    _record(exact_pairs=int(n))


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
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(ai, bj)`` index pairs of two corner arrays that pass the
    interval test ``lo_a < hi_b`` and ``lo_b < hi_a`` on every axis.

    Returns two int64 index arrays in ``ai``-major, ``bj``-minor order,
    with no duplicates, on every query: the hit matrix finds them at or
    below ``_BRUTE_CUTOFF`` pairs or for an operand of at most one row,
    the slab sweep above that.

    ``closed`` treats boxes as closed intervals ``[lo, hi]`` (``<=`` in
    the test), so *abutting* boxes pair too — the face-contact query
    needs touching pairs, not just overlapping ones.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    _record(queries=1, pair_product=n_a * n_b)
    if n_a * n_b <= _BRUTE_CUTOFF or min(n_a, n_b) <= 1:
        return _hit_candidates(a, b, closed)
    return _sweep_candidates(a, b, closed)


def _hit_candidates(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of the hit matrix, the interval test on every pair.

    The matrix is built in blocks of ``a`` rows, at most
    ``_CHUNK_PAIRS`` pairs (and at least one row) each, one axis at a
    time on 2-D ``(rows, n_b)`` arrays; an empty ``a`` is one empty
    block.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    _record(brute_queries=1, bruteforce_pairs=n_a * n_b)
    ndim = a.shape[1] // 2
    less = np.less_equal if closed else np.less
    step = max(1, _CHUNK_PAIRS // max(1, n_b))
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    for start in range(0, max(n_a, 1), step):
        rows = a[start : start + step]
        hit = less(rows[:, None, 0], b[:, ndim])
        hit &= less(b[:, 0], rows[:, None, ndim])
        for x in range(1, ndim):
            hit &= less(rows[:, None, x], b[:, ndim + x])
            hit &= less(b[:, x], rows[:, None, ndim + x])
        ai, bj = np.nonzero(hit)  # row-major: ai-major, bj-minor
        ai += start
        out_i.append(ai)
        out_j.append(bj)
    if len(out_i) == 1:
        return out_i[0], out_j[0]
    return np.concatenate(out_i), np.concatenate(out_j)


def _sweep_axes(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[int, int | None]:
    """``(sweep axis, slab axis)``: the axes along which the fewest and
    the next-fewest pairs overlap in projection (``None`` in 1-D).

    Along an axis a pair overlaps when ``lo_b < hi_a`` and
    ``lo_a < hi_b``.  Failing both means ``lo_b >= hi_a >= lo_a >= hi_b
    >= lo_b``, which boxes with ``lo <= hi`` do only when both are flat
    at one point, so the overlap count is, bar those, the two
    conditions' counts minus the pair product.  Each count is one binary
    search of one operand's ends into the other's sorted starts; ranking
    the axes needs only their sum.
    """
    ndim = a.shape[1] // 2
    if ndim == 1:
        return 0, None
    side = "right" if closed else "left"
    starts_b = np.sort(b[:, :ndim].T, axis=1)
    starts_a = starts_b if a is b else np.sort(a[:, :ndim].T, axis=1)
    overlap = np.empty(ndim, dtype=np.int64)
    for x in range(ndim):
        overlap[x] = np.searchsorted(starts_b[x], a[:, ndim + x], side).sum()
        if a is b:
            overlap[x] *= 2
        else:
            overlap[x] += np.searchsorted(starts_a[x], b[:, ndim + x], side).sum()
    d, e = np.argsort(overlap, kind="stable")[:2]
    return int(d), int(e)


def _slab_spans(
    lo: np.ndarray, hi: np.ndarray, closed: bool, reach: int
) -> tuple[np.ndarray, np.ndarray]:
    """First and last slab of every box along the slab axis.

    A box spans the slabs from its ``lo`` to its top cell (``hi - 1``
    open, ``hi`` closed, ``lo`` for a zero-extent box), so two boxes
    that pass the interval test along the axis both span the slab
    holding the larger ``lo``.  The width starts at the median box
    extent and doubles until the incidences fit the budget and the sort
    key (below ``2 * nslabs * reach``) fits an int64 with a bit of
    headroom; one slab always does.
    """
    n = lo.size
    width = max(1, int(np.partition(hi - lo, n // 2)[n // 2]))
    base = lo.min()
    top = np.maximum(lo, hi if closed else hi - 1) - base
    lo = lo - base
    while True:
        first, last = lo // width, top // width
        nslabs = int(last.max()) + 1
        incidences = int((last - first).sum()) + n
        if nslabs == 1 or (
            incidences <= _SLAB_INCIDENCE_FACTOR * n and nslabs * reach < 2**61
        ):
            return first, last
        width *= 2


def _ranges(
    start: np.ndarray, count: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(query, position)`` of every pair the binary-search ranges
    ``[start, start + count)`` hold, in chunks of at most
    ``_CHUNK_PAIRS`` pairs (a single larger range is one chunk)."""
    ends = np.cumsum(count)
    q0, n = 0, count.size
    while q0 < n:
        done = int(ends[q0] - count[q0])
        q1 = max(
            q0 + 1,
            int(np.searchsorted(ends, done + _CHUNK_PAIRS, "right")),
        )
        c = count[q0:q1]
        total = int(ends[q1 - 1]) - done
        if total:
            query = np.repeat(np.arange(q0, q1), c)
            shift = start[q0:q1] - (ends[q0:q1] - c - done)
            yield query, np.arange(total) + np.repeat(shift, c)
        q0 = q1


def _sweep_candidates(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Slab-sweep join (see the module docstring for the scheme)."""
    ndim = a.shape[1] // 2
    n_a, n_b = a.shape[0], b.shape[0]
    self_join = a is b
    # One row table: a's rows, then b's (b is a in a self-join).
    rows = a if self_join else np.concatenate((a, b))
    columns = np.ascontiguousarray(rows.T)
    lo, hi = columns[:ndim], columns[ndim:]
    d, e = _sweep_axes(a, b, closed)
    base = min(int(lo[d].min()), int(hi[d].min()))
    reach = max(int(lo[d].max()), int(hi[d].max())) - base + 1
    if e is None:
        first = last = np.zeros(rows.shape[0], dtype=np.int64)
    else:
        first, last = _slab_spans(lo[e], hi[e], closed, reach)
    # One incidence per (box, slab) the box spans, keyed by slab, then
    # by lo along the sweep axis; ``opens`` marks each box's first slab.
    span = last - first + 1
    offsets = np.cumsum(span) - span
    box = np.repeat(np.arange(rows.shape[0]), span)
    slab = np.arange(box.size) + np.repeat(first - offsets, span)
    key = slab * reach
    opens = np.zeros(box.size, dtype=bool)
    opens[offsets] = True
    upper = key + (hi[d][box] - base + int(closed))
    key += lo[d][box] - base
    if self_join:
        # Case 1 alone: the rows starting in [lo, hi) (closed: [lo, hi]).
        lower = key
    else:
        # The b rows' keys move above every a row's.  Case 1: an a row
        # finds the b rows starting in [lo_a, hi_a); case 2: a b row
        # finds the a rows starting in (lo_b, hi_b) (closed: up to hi).
        shift = (int(last.max()) + 1) * reach
        is_b = box >= n_a
        lower = key + np.where(is_b, 1, shift)
        upper += np.where(is_b, 0, shift)
        key[is_b] += shift
    order = np.argsort(key)
    sorted_key, found, found_opens = key[order], box[order], opens[order]
    start = np.searchsorted(sorted_key, lower)
    count = np.maximum(np.searchsorted(sorted_key, upper) - start, 0)
    # The interval test on every axis the sweep leaves open.  Along d,
    # case 1 is exact unless a row is flat or inverted there (as in
    # lo_b == lo_a == hi_b).
    flat = (hi[d] < lo[d]) if closed else (hi[d] <= lo[d])
    axes = [x for x in range(ndim) if x != d or flat.any()]
    less = np.less_equal if closed else np.less
    out_q: list[np.ndarray] = []
    out_f: list[np.ndarray] = []
    for query, pos in _ranges(start, count):
        qi, fj = box[query], found[pos]
        # Reference slab: the one holding max(lo_a[e], lo_b[e]), where
        # one of the two boxes opens.
        keep = opens[query] | found_opens[pos]
        for x in axes:
            keep &= less(lo[x][qi], hi[x][fj])
            keep &= less(lo[x][fj], hi[x][qi])
        out_q.append(qi[keep])
        out_f.append(fj[keep])
    qi = np.concatenate(out_q) if out_q else np.empty(0, dtype=np.int64)
    fj = np.concatenate(out_f) if out_f else np.empty(0, dtype=np.int64)
    if self_join:
        # Case 2 is case 1 mirrored: (fj, qi) wherever lo_f[d] > lo_q[d].
        mirror = lo[d][fj] > lo[d][qi]
        ai = np.concatenate((qi, fj[mirror]))
        bj = np.concatenate((fj, qi[mirror]))
    else:
        # Every pair holds one a row (below n_a) and one b row.
        ai, bj = np.minimum(qi, fj), np.maximum(qi, fj) - n_a
    packed = ai * np.int64(n_b) + bj
    packed.sort()
    _record(sweep_queries=1, candidate_pairs=packed.size)
    ai = packed // n_b
    return ai, packed - ai * n_b
