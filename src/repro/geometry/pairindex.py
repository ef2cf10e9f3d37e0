"""Grid-bucket pair pruning: sub-quadratic candidates for the pair kernels.

The owner-map kernels (:func:`~repro.geometry.ownermap.pair_intersections`,
:func:`~repro.geometry.ownermap.face_contacts`,
:func:`~repro.geometry.ownermap.overlap_volume`) are exact sweeps over
*candidate* box pairs.  Historically the candidate set was the full
O(n_a * n_b) cross product; at ``deep`` scale and beyond almost all of
those pairs are disjoint, and the broadcast dominates simulator
wall-clock.  This module prunes the candidate set to near-linear before
the exact arithmetic runs:

* **grid** — boxes are bucketed into a coarse integer grid whose cell
  size is the *median box extent* per axis (so a typical box touches
  O(2^ndim) cells).  Cell incidences are packed into int64 keys
  (mixed-radix over the grid extents) and the two inputs are joined on
  sorted unique keys: only pairs sharing at least one bucket are
  emitted.  Two boxes that intersect (or abut, for the *closed* face
  query) always share a cell, so the candidate set is a superset of the
  exact answer — pruning never changes results.  Mixed scales (a few
  large or long boxes among many small ones) can push the incidences
  past ``_GRID_INCIDENCE_FACTOR`` times the box count; the cell is then
  doubled along the axis whose spans sum highest until they fit.
* **sweep** — a sorted 1-D interval sweep along the most selective
  axis.  Only selected when forced, or as the kind of a persistent
  :class:`PairIndex` whose domain-anchored buckets would explode.
* **bruteforce** — the quadratic all-pairs kernels, kept as the
  runtime oracle (``None`` from :func:`candidate_pairs` tells the
  kernel to run its historical broadcast).

Candidates are always deduplicated and returned in brute-force emission
order (``ai``-major, ``bj``-minor via a sort + dedup on packed pair
keys), so every downstream kernel produces **bit-identical** outputs on
every path — asserted by the property suite, which replays every
registered partitioner's simulator steps under both modes.

The active path is selected by the ``REPRO_PAIR_INDEX`` environment
variable (``auto`` | ``grid`` | ``sweep`` | ``bruteforce``; default
``auto`` = grid with a small-product brute-force cutoff) or forced
in-process with :func:`pair_index_forced`.  The kernels charge their
pruning effectiveness (candidate pairs generated vs. exact pairs
surviving vs. the brute-force product) to the metrics registry's
``repro_pair_*_total`` counters, which the benchmark tables, run
profiles and ``/metrics`` all read.

**Persistent indexes** (:class:`PairIndex`) serve every kernel query
against one corner array from a single build.  A :class:`PairIndex` is
built *once* per owner map (grid buckets over the level's fixed domain,
or a sorted sweep when those buckets would explode) and answers every
kernel query against that map within a simulator step; the next step's
maps build their own.  Candidates from a persistent index are a superset
of the two-sided candidates and are canonicalised through the same
:func:`_canonical` packing, so every downstream kernel stays
**bit-identical** on every path.  The reuse layer is switched by
``REPRO_PAIR_REUSE`` (``auto`` | ``off``; default ``auto``) or
:func:`pair_reuse_forced`; ``off`` builds a throwaway index per query,
the reference the reuse layer is diffed against.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from ..registry import declare_kind, register
from ..telemetry.metrics import PAIR_COUNTER_FIELDS, metrics_registry

__all__ = [
    "PAIR_INDEX_MODES",
    "PAIR_REUSE_MODES",
    "PairIndex",
    "candidate_pairs",
    "pair_index_forced",
    "pair_index_mode",
    "pair_reuse_forced",
    "pair_reuse_mode",
]

#: Recognized values of ``REPRO_PAIR_INDEX``.
PAIR_INDEX_MODES = ("auto", "grid", "sweep", "bruteforce")

#: Recognized values of ``REPRO_PAIR_REUSE``.
PAIR_REUSE_MODES = ("auto", "off")

#: ``auto`` runs the historical broadcast below this pair product — for
#: tiny inputs the quadratic kernel beats the index's setup cost.
_AUTO_BRUTE_CUTOFF = 16_384

#: Incidence budget: while its cell-incidence lists exceed this factor
#: times the box count (boxes spanning many buckets each), the one-shot
#: grid coarsens its cell and a persistent :class:`PairIndex` takes the
#: sweep kind.
_GRID_INCIDENCE_FACTOR = 32

#: Row budget of the sweep's chunked prefix enumeration (mirrors
#: ``ownermap._PAIR_CHUNK_CELLS``).
_SWEEP_CHUNK_PAIRS = 16_000_000

#: In-process override installed by :func:`pair_index_forced`.
_FORCED_MODE: str | None = None

#: In-process override installed by :func:`pair_reuse_forced`.
_FORCED_REUSE: str | None = None


def pair_index_mode() -> str:
    """The active candidate-generation mode.

    :func:`pair_index_forced` overrides take precedence over the
    ``REPRO_PAIR_INDEX`` environment variable (read per call, so tests
    and CI steps can flip it without re-importing).
    """
    mode = _FORCED_MODE or os.environ.get("REPRO_PAIR_INDEX", "auto")
    if mode not in PAIR_INDEX_MODES:
        raise ValueError(
            f"REPRO_PAIR_INDEX must be one of {PAIR_INDEX_MODES}, got {mode!r}"
        )
    return mode


@contextmanager
def pair_index_forced(mode: str):
    """Force one candidate mode for the dynamic extent of the block.

    The property suite uses this to replay the same query (or a whole
    simulator step) on two paths and assert bit-identical output.
    """
    global _FORCED_MODE
    if mode not in PAIR_INDEX_MODES:
        raise ValueError(
            f"pair-index mode must be one of {PAIR_INDEX_MODES}, got {mode!r}"
        )
    previous = _FORCED_MODE
    _FORCED_MODE = mode
    try:
        yield
    finally:
        _FORCED_MODE = previous


def pair_reuse_mode() -> str:
    """The active index-reuse mode (``auto`` | ``off``).

    ``auto`` lets kernels serve candidates from a persistent
    :class:`PairIndex` when the caller threads one through; ``off``
    restores the per-query index builds of the PR-6 path exactly.
    :func:`pair_reuse_forced` overrides take precedence over the
    ``REPRO_PAIR_REUSE`` environment variable (read per call).
    """
    mode = _FORCED_REUSE or os.environ.get("REPRO_PAIR_REUSE", "auto")
    if mode not in PAIR_REUSE_MODES:
        raise ValueError(
            f"REPRO_PAIR_REUSE must be one of {PAIR_REUSE_MODES}, got {mode!r}"
        )
    return mode


@contextmanager
def pair_reuse_forced(mode: str):
    """Force one reuse mode for the dynamic extent of the block.

    CI and the property suite replay the same sweep with reuse on and
    off and diff the store hashes — bit-identity is the invariant.
    """
    global _FORCED_REUSE
    if mode not in PAIR_REUSE_MODES:
        raise ValueError(
            f"pair-reuse mode must be one of {PAIR_REUSE_MODES}, got {mode!r}"
        )
    previous = _FORCED_REUSE
    _FORCED_REUSE = mode
    try:
        yield
    finally:
        _FORCED_REUSE = previous


#: Charges kernel events to the metrics registry's
#: ``repro_pair_<field>_total`` counters (``_record(queries=1, ...)``).
_record = metrics_registry().counter_group(
    "repro_pair_{}_total", PAIR_COUNTER_FIELDS
)


def _record_exact(n: int) -> None:
    """Called by the kernels with the surviving pair count."""
    _record(exact_pairs=int(n))


def _record_brute(n_pairs: int) -> None:
    """Called by the kernels when the historical broadcast runs."""
    _record(brute_queries=1, bruteforce_pairs=int(n_pairs))


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def candidate_pairs(
    a: np.ndarray,
    b: np.ndarray,
    closed: bool = False,
    *,
    a_index: "PairIndex | None" = None,
    b_index: "PairIndex | None" = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate ``(ai, bj)`` index pairs of two corner arrays.

    Returns ``None`` when the caller should run its brute-force
    broadcast (``bruteforce`` mode, or ``auto`` below the small-product
    cutoff); otherwise two int64 index arrays in canonical brute-force
    emission order (``ai``-major, ``bj``-minor, no duplicates) that are
    a superset of all intersecting pairs.

    ``closed`` treats boxes as closed intervals ``[lo, hi]`` so *abutting*
    boxes also cohabit a bucket — the face-contact query needs touching
    pairs, not just overlapping ones.

    ``a_index`` / ``b_index`` are optional persistent :class:`PairIndex`
    objects over ``a`` / ``b``.  When the reuse layer is on and an index
    actually covers its operand (identity-checked), candidates come from
    one one-sided probe instead of a fresh two-sided build; the result
    goes through the same canonicalisation, so outputs are bit-identical
    either way.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    _record(queries=1, pair_product=n_a * n_b)
    mode = pair_index_mode()
    if mode == "bruteforce":
        return None
    if mode == "auto" and n_a * n_b <= _AUTO_BRUTE_CUTOFF:
        return None
    if n_a == 0 or n_b == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n_a == 1 or n_b == 1:
        # One-row operand: the interval test along every axis *is* the
        # candidate filter — O(n), no index to build.  This keeps the
        # thousands of per-box subtraction queries the overlay kernels
        # issue cheap even when an indexed mode is forced.
        return _single_candidates(a, b, closed)
    if pair_reuse_mode() == "auto":
        if b_index is not None and b_index.indexes(b):
            hit = b_index.query(a, closed)
            if hit is not None:
                qi, xj = hit
                return _canonical(qi, xj, n_b)
        if a_index is not None and a_index.indexes(a):
            hit = a_index.query(b, closed)
            if hit is not None:
                qj, xi = hit
                return _canonical(xi, qj, n_b)
    if mode == "sweep":
        return _sweep_candidates(a, b, closed)
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


def _sweep_candidates(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted 1-D interval sweep along the most selective axis.

    Exact along the sweep axis (candidates = pairs whose extents overlap
    there); the remaining axes are filtered by the exact arithmetic
    downstream, like any other candidate.
    """
    _record(sweep_queries=1)
    ndim = a.shape[1] // 2
    n_a, n_b = a.shape[0], b.shape[0]
    # Most selective axis: largest corner spread relative to the median
    # extent — the axis along which intervals separate best.
    lo_all = np.concatenate((a[:, :ndim], b[:, :ndim]))
    hi_all = np.concatenate((a[:, ndim:], b[:, ndim:]))
    spread = lo_all.max(axis=0) - lo_all.min(axis=0)
    med = np.maximum(1, np.median(hi_all - lo_all, axis=0))
    axis = int(np.argmax(spread / med))
    a_lo, a_hi = a[:, axis], a[:, ndim + axis]
    b_lo, b_hi = b[:, axis], b[:, ndim + axis]
    order = np.argsort(b_lo, kind="stable")
    ii, jj = _sweep_join(a_lo, a_hi, b_lo[order], b_hi[order], order, closed)
    return _canonical(ii, jj, n_b)


def _sweep_join(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo_s: np.ndarray,
    b_hi_s: np.ndarray,
    order: np.ndarray,
    closed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked interval join against pre-sorted ``b`` intervals.

    Returns raw ``(ai, bj)`` pairs (``bj`` in original ``b`` row
    numbers, possibly unsorted) — callers canonicalise.  Shared by the
    one-shot sweep path and :class:`PairIndex`'s persistent sweep kind.
    """
    n_a = a_lo.shape[0]
    # Candidates of row i: sorted-prefix j with b_lo_j < a_hi_i (<= when
    # closed), filtered by b_hi_j > a_lo_i (>= when closed).
    side = "right" if closed else "left"
    upper = np.searchsorted(b_lo_s, a_hi, side=side)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    csum = np.concatenate(([0], np.cumsum(upper)))
    start = 0
    while start < n_a:
        end = int(
            np.searchsorted(csum, csum[start] + _SWEEP_CHUNK_PAIRS, side="left")
        )
        end = max(start + 1, min(end, n_a))
        counts = upper[start:end]
        total = int(counts.sum())
        if total:
            ii = np.repeat(np.arange(start, end, dtype=np.int64), counts)
            offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
            jj = np.arange(total, dtype=np.int64) - np.repeat(offs, counts)
            keep = b_hi_s[jj] >= a_lo[ii] if closed else b_hi_s[jj] > a_lo[ii]
            out_i.append(ii[keep])
            out_j.append(order[jj[keep]])
        start = end
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_i), np.concatenate(out_j)


# ---------------------------------------------------------------------------
# persistent indexes
# ---------------------------------------------------------------------------

class PairIndex:
    """A persistent one-sided candidate index over one corner array.

    Built once per box distribution (grid buckets anchored to the
    level's fixed ``shape`` domain, or the sorted-sweep fallback when
    bucket incidences explode), then probed by every kernel query that
    touches the array within a step.

    A probe returns a candidate **superset** in raw order; callers run
    it through :func:`_canonical`, so results are bit-identical to the
    two-sided per-query path (the candidate sets may differ — the exact
    arithmetic downstream erases the difference).
    """

    __slots__ = (
        "shape",
        "_ext",
        "_n",
        "_kind",
        "_cell",
        "_dims",
        "_strides",
        "_rows",
        "_ukeys",
        "_ustart",
        "_ucount",
        "_axis",
        "_order",
        "_lo_s",
        "_hi_s",
    )

    def __init__(self, shape, corners: np.ndarray):
        self.shape = tuple(int(s) for s in shape)
        self._ext = corners
        self._n = int(corners.shape[0])
        self._cell = self._dims = self._strides = None
        self._rows = None
        self._ukeys = self._ustart = self._ucount = None
        self._axis = None
        self._order = self._lo_s = self._hi_s = None
        if self._n == 0:
            self._kind = "empty"
            return
        _record(index_builds=1)
        if pair_index_mode() == "sweep" or not self._build_grid():
            self._build_sweep()

    # -- introspection ----------------------------------------------------

    @property
    def kind(self) -> str:
        """``grid`` | ``sweep`` | ``empty``."""
        return self._kind

    @property
    def nboxes(self) -> int:
        return self._n

    def indexes(self, corners: np.ndarray) -> bool:
        """Whether this index covers exactly that corner array (identity)."""
        return corners is self._ext

    # -- construction -----------------------------------------------------

    def _build_grid(self) -> bool:
        """Bucket the boxes over the domain grid; False on explosion."""
        corners = self._ext
        ndim = corners.shape[1] // 2
        lo = corners[:, :ndim]
        hi = corners[:, ndim:]
        cell = np.maximum(1, np.median(hi - lo, axis=0).astype(np.int64))
        shape_arr = np.asarray(self.shape, dtype=np.int64)
        while True:
            # Anchored to the level's fixed domain (base 0), so a query
            # from any map over the same domain lands on the same grid.
            dims = shape_arr // cell + 1
            if int(np.prod([int(d) for d in dims])) < 2**62:
                break
            cell = cell * 2
        # Closed incidence (``hi // cell``) covers a superset of both the
        # open and closed query semantics, so one stored index serves
        # intersection *and* face-contact probes.
        lo_cell = np.clip(lo // cell, 0, dims - 1)
        spans = np.clip(hi // cell, 0, dims - 1) - lo_cell + 1
        if int(np.prod(spans, axis=1, dtype=np.int64).sum()) > (
            _GRID_INCIDENCE_FACTOR * self._n + 1024
        ):
            return False
        strides = np.ones(ndim, dtype=np.int64)
        for d in range(ndim - 2, -1, -1):
            strides[d] = strides[d + 1] * dims[d + 1]
        keys, rows = _cell_keys(lo_cell, spans, strides)
        order = np.argsort(keys, kind="stable")
        self._kind = "grid"
        self._cell, self._dims, self._strides = cell, dims, strides
        self._rows = rows[order]
        self._ukeys, self._ustart, self._ucount = _sorted_groups(keys[order])
        return True

    def _build_sweep(self) -> None:
        corners = self._ext
        ndim = corners.shape[1] // 2
        lo = corners[:, :ndim]
        hi = corners[:, ndim:]
        spread = lo.max(axis=0) - lo.min(axis=0)
        med = np.maximum(1, np.median(hi - lo, axis=0))
        self._kind = "sweep"
        self._axis = int(np.argmax(spread / med))
        order = np.argsort(lo[:, self._axis], kind="stable")
        self._order = order.astype(np.int64)
        self._lo_s = lo[order, self._axis]
        self._hi_s = hi[order, self._axis]

    # -- probing ----------------------------------------------------------

    def query(
        self, q: np.ndarray, closed: bool
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Raw candidate ``(query_row, indexed_row)`` pairs, or ``None``.

        ``None`` means the probe declined (query-side bucket incidences
        would explode) and the caller should fall back to the two-sided
        per-query path.  Pairs are a superset of all intersecting
        (``closed``: touching) pairs, unordered and possibly duplicated
        — callers canonicalise.
        """
        if self._kind == "empty":
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if self._kind == "sweep":
            return self._sweep_query(q, closed)
        return self._grid_query(q, closed)

    def _grid_query(
        self, q: np.ndarray, closed: bool
    ) -> tuple[np.ndarray, np.ndarray] | None:
        ndim = self._dims.size
        lo = q[:, :ndim]
        inclusive_hi = q[:, ndim:] if closed else q[:, ndim:] - 1
        lo_cell = np.clip(lo // self._cell, 0, self._dims - 1)
        hi_cell = np.clip(inclusive_hi // self._cell, 0, self._dims - 1)
        spans = hi_cell - lo_cell + 1
        good = (spans > 0).all(axis=1)
        row_map = None
        if not good.all():
            # Zero-extent open boxes can't overlap anything — drop them,
            # remembering original row numbers for the emitted pairs.
            row_map = np.flatnonzero(good)
            lo_cell, spans = lo_cell[good], spans[good]
        incidences = int(np.prod(spans, axis=1, dtype=np.int64).sum())
        if incidences > _GRID_INCIDENCE_FACTOR * q.shape[0] + 1024:
            return None
        _record(grid_queries=1, index_reuses=1)
        qkeys, qrows = _cell_keys(lo_cell, spans, self._strides)
        order = np.argsort(qkeys, kind="stable")
        qkeys, qrows = qkeys[order], qrows[order]
        uq, qstart, qcount = _sorted_groups(qkeys)
        _, pq, px = np.intersect1d(
            uq, self._ukeys, assume_unique=True, return_indices=True
        )
        if pq.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cq, cx = qcount[pq], self._ucount[px]
        sq, sx = qstart[pq], self._ustart[px]
        block = cq * cx
        starts = np.concatenate(([0], np.cumsum(block)[:-1]))
        total = int(block.sum())
        gid = np.repeat(np.arange(block.size), block)
        t = np.arange(total, dtype=np.int64) - np.repeat(starts, block)
        qi = qrows[sq[gid] + t // cx[gid]]
        xj = self._rows[sx[gid] + t % cx[gid]]
        if row_map is not None:
            qi = row_map[qi]
        return qi, xj

    def _sweep_query(
        self, q: np.ndarray, closed: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        _record(sweep_queries=1, index_reuses=1)
        ndim = q.shape[1] // 2
        a_lo = q[:, self._axis]
        a_hi = q[:, ndim + self._axis]
        return _sweep_join(a_lo, a_hi, self._lo_s, self._hi_s, self._order, closed)


# ---------------------------------------------------------------------------
# registry exposure: `repro describe --kind pair-index`
# ---------------------------------------------------------------------------

declare_kind("pair-index", "pair-index mode")


def _register_modes() -> None:
    docs = {
        "auto": (
            "grid-bucket pruning with a brute-force cutoff below "
            f"{_AUTO_BRUTE_CUTOFF} candidate products (the default)"
        ),
        "grid": (
            "force grid buckets (cell size = median box extent per axis, "
            "doubled along the most-spanned axis while cell incidences "
            f"exceed {_GRID_INCIDENCE_FACTOR}x the box count)"
        ),
        "sweep": "force the sorted interval sweep along the most selective axis",
        "bruteforce": "force the historical O(n^2) broadcast (the oracle)",
    }
    for name, description in docs.items():
        register(
            "pair-index",
            name,
            (lambda mode: lambda: pair_index_forced(mode))(name),
            description=description,
        )


_register_modes()


declare_kind("pair-reuse", "pair-index reuse mode")


def _register_reuse_modes() -> None:
    docs = {
        "auto": (
            "persistent per-level PairIndex shared by all kernel queries in "
            "a step (the default)"
        ),
        "off": (
            "rebuild indexes per query — the exact PR-6 hot path, kept as "
            "the bit-identity reference"
        ),
    }
    for name, description in docs.items():
        register(
            "pair-reuse",
            name,
            (lambda mode: lambda: pair_reuse_forced(mode))(name),
            description=description,
        )


_register_reuse_modes()
