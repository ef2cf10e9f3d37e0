"""One oracle per fast path, tested differentially against it.

Each row of :data:`ORACLES` names a fast path, the oracle it must agree
with, and two context managers: one that runs the fast path and one
that swaps in the oracle.  Every test here takes its row from the table.

* **slab-sweep candidates** against the **hit-matrix candidates**:
  ``candidate_pairs`` picks its path by pair product, so patching the
  module's ``_BRUTE_CUTOFF`` to ``-1`` puts every query whose operands
  both hold two rows or more on the sweep, and patching it to ``10**18``
  puts every query on the hit matrix.  Both paths feed the pair
  kernels' one arithmetic, so the row checks the candidates;
  ``tests/dense_oracle.py`` is the arithmetic's oracle.
* **batched subtraction** (``ownermap._subtract_groups``, behind
  ``overlay_corners``, ``overlay_pairs`` and so the sticky remapper's
  output) against a **sequential** :meth:`Box.subtract` **sweep** over
  each group's holes.
* **scan walk** (``ownermap._scan_index``, one walk over the axes that
  finds a region's ``k``-th cell in row-major order, behind
  ``split_in_scan_order`` and the sticky remapper's partial moves)
  against the **bisection** over ``overlap_volume`` queries of the scan
  prefix it replaces (:func:`bisect_scan_index`).
* **rank-padded sweep** (``matched_volume``'s one broadcast over
  rank-padded corner blocks) against the **per-rank loop** of
  ``overlap_volume`` queries it replaces (``ownermap._RANK_PAD_CELLS``
  patched to ``-1``, so no block fits the budget).
* **coalesced owner maps** against the **uncoalesced maps** the
  partitioners built (``ownermap._coalesce_rows``, the one merge of
  ``OwnerMap.coalesced`` and ``cell_boxes``, patched to identity: no map
  merges, and ``cell_boxes`` stops at its runs along the last axis).
* **merged cell boxes** (``cell_boxes``, behind the SFC partitioner's
  unit blocks, Nature+Fable's Hue, Core and bi-level boxes and
  ``OwnerMap.from_raster``) against **one box per cell**
  (:func:`unit_cell_boxes`, patched in every module that calls
  ``cell_boxes``).
* **LRU read-cache hit** against a **cold read** of the store
  (a read cache holding no entries).
* **indexed coalesce** (``coalesce_boxes``, which finds merge partners
  through a face-keyed dict) against the **greedy** ``can_coalesce``
  **scan** it emulates (``boxlist.coalesce_boxes`` patched to
  :func:`greedy_coalesce`).
* **rasterless block overlaps** (``block_overlaps``' one scatter and
  one prefix sum per axis, behind ``GridHierarchy.column_workloads`` and
  Nature+Fable's bi-level unit weights) against the **dense block sum**
  of each row's rasterized mask, weighted and summed over the rows
  (:func:`dense_block_overlaps`, patched in wherever ``block_overlaps``
  is called).
* **periodic interpolation** (``apps.base._periodic_interp``, the
  semi-Lagrangian step of tp2d and tp3d) against scipy's
  **``map_coordinates(order=1, mode="grid-wrap")``**.
* **flag dilation** (``buffer_flags``' running-count window) against
  scipy's **``maximum_filter``** of the flags.
* **Core labels** (``hybrid._label_cores``, Nature+Fable's Hue/Core
  split) against scipy's **``ndimage.label``** and **``sum_labels``**.

Fast and oracle must agree bit for bit: same rows in the same order,
same dtypes, identical simulator step metrics, identical trace bytes.
scipy is a test-only dependency: the package never imports it.
"""

from __future__ import annotations

import itertools
import json
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.apps import base as app_base
from repro.apps import generate_trace, make_application, tp2d, tp3d
from repro.clustering import buffer_flags
from repro.engine import ResultStore, create, registry
from repro.engine import store as store_module
from repro.engine.store import clear_read_cache, read_cache_stats
from repro.experiments import paper_trace
from repro.experiments.workloads import paper_config, shadow_shape, workload_ndim
from repro.geometry import (
    Box,
    BoxList,
    NO_OWNER,
    OwnerMap,
    box_corners,
    corner_volumes,
    face_contacts,
    matched_volume,
    overlap_volume,
    overlay_corners,
    pair_intersections,
    prefix_corners,
    split_in_scan_order,
)
from repro.geometry import boxlist, ownermap, pairindex, raster, rasterize_mask
from repro.hierarchy import hierarchy as hierarchy_module
from repro.partition import domain_sfc, hybrid
from repro.simulator import TraceSimulator
from repro.telemetry import counter_deltas, reset_metrics

from tests import dense_oracle as dense
from tests.strategies import disjoint_boxlists, nested_hierarchies
from tests.test_store_cache import _make_result


def sweep_everywhere() -> ContextManager:
    """Every pair query with two rows or more a side takes the slab
    sweep."""
    return mock.patch.object(pairindex, "_BRUTE_CUTOFF", -1)


def hit_matrix_everywhere() -> ContextManager:
    """Every pair query takes the hit matrix."""
    return mock.patch.object(pairindex, "_BRUTE_CUTOFF", 10**18)


def sequential_subtract_groups(
    rows: np.ndarray, holes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_subtract_groups`` one group and one hole at a time with
    :meth:`Box.subtract`: ``rows[g] \\ holes[offsets[g]:offsets[g+1]]``."""
    ndim = rows.shape[1] // 2
    frags_out: list[Box] = []
    gids: list[int] = []
    for g, row in enumerate(rows):
        frags = [Box(tuple(row[:ndim]), tuple(row[ndim:]))]
        for hole_row in holes[offsets[g]:offsets[g + 1]]:
            hole = Box(tuple(hole_row[:ndim]), tuple(hole_row[ndim:]))
            frags = [piece for frag in frags for piece in frag.subtract(hole)]
        frags_out.extend(frags)
        gids.extend([g] * len(frags))
    return box_corners(frags_out, ndim), np.asarray(gids, dtype=np.int64)


def sequential_subtraction() -> ContextManager:
    return mock.patch.object(
        ownermap, "_subtract_groups", sequential_subtract_groups
    )


def bisect_scan_index(
    corners: np.ndarray, shape: Sequence[int], k: int
) -> int:
    """``_scan_index`` by bisection: the smallest ``t`` whose scan prefix
    holds ``k`` region cells, one ``overlap_volume`` query per probe."""
    lo, hi = 0, int(np.prod(tuple(shape), dtype=np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if overlap_volume(corners, prefix_corners(shape, mid)) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def bisected_scan_order() -> ContextManager:
    return mock.patch.object(ownermap, "_scan_index", bisect_scan_index)


def per_rank_queries() -> ContextManager:
    """``matched_volume`` issues one ``overlap_volume`` query per rank."""
    return mock.patch.object(ownermap, "_RANK_PAD_CELLS", -1)


def uncoalesced_maps() -> ContextManager:
    return mock.patch.object(
        ownermap, "_coalesce_rows", lambda corners, ranks: (corners, ranks)
    )


def unit_cell_boxes(
    coords: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``cell_boxes`` without a merge: one box per cell."""
    coords = np.asarray(coords, dtype=np.int64)
    return np.concatenate((coords, coords + 1), axis=1), np.asarray(labels)


@contextmanager
def unmerged_cells():
    """Every ``cell_boxes`` call returns one box per cell."""
    with ExitStack() as stack:
        for module in (ownermap, domain_sfc, hybrid):
            stack.enter_context(
                mock.patch.object(module, "cell_boxes", unit_cell_boxes)
            )
        yield


def greedy_coalesce(
    boxes: Sequence[Box], passes: list[int] | None = None
) -> list[Box]:
    """The greedy scan :func:`~repro.geometry.coalesce_boxes` emulates:
    each pass tests every later unused box against the growing
    accumulator with :meth:`Box.can_coalesce`, until a pass merges
    nothing.  ``passes``, when given, collects each pass's box count."""
    work = [b for b in boxes if not b.empty]
    merged = True
    while merged:
        merged = False
        out: list[Box] = []
        used = [False] * len(work)
        for i, bi in enumerate(work):
            if used[i]:
                continue
            acc = bi
            for j in range(i + 1, len(work)):
                if used[j]:
                    continue
                bj = work[j]
                if acc.can_coalesce(bj):
                    acc = acc.merge_bounding(bj)
                    used[j] = True
                    merged = True
            out.append(acc)
        work = out
        if passes is not None:
            passes.append(len(work))
    return work


def greedy_coalescing() -> ContextManager:
    return mock.patch.object(boxlist, "coalesce_boxes", greedy_coalesce)


def dense_block_overlaps(
    shape: Sequence[int],
    corners: np.ndarray,
    factor: int | np.ndarray = 1,
    weight: float | np.ndarray = 1.0,
) -> np.ndarray:
    """``block_overlaps`` the dense way: rasterize each row over the fine
    index space its blocks cover, block-sum the mask, weight it, and sum
    the rows."""
    ndim = len(shape)
    corners = np.asarray(corners, dtype=np.int64)
    factors = np.broadcast_to(factor, len(corners))
    weights = np.broadcast_to(weight, len(corners))
    out = np.zeros(tuple(shape))
    for row, f, w in zip(corners, factors, weights):
        domain = Box((0,) * ndim, tuple(s * int(f) for s in shape))
        box = Box(tuple(row[:ndim]), tuple(row[ndim:]))
        out += dense.block_sum(rasterize_mask([box], domain), int(f)) * w
    return out


@contextmanager
def dense_box_overlaps():
    """Every block-overlap sum goes through the dense raster."""
    with ExitStack() as stack:
        for module in (raster, hierarchy_module, hybrid):
            stack.enter_context(
                mock.patch.object(
                    module, "block_overlaps", dense_block_overlaps
                )
            )
        yield


def scipy_interp(array: np.ndarray, coords: list[np.ndarray]) -> np.ndarray:
    """The scipy call ``_periodic_interp`` replaces."""
    return ndimage.map_coordinates(array, coords, order=1, mode="grid-wrap")


@contextmanager
def scipy_interpolation():
    """tp2d and tp3d advance through ``map_coordinates``."""
    with ExitStack() as stack:
        for module in (tp2d, tp3d):
            stack.enter_context(
                mock.patch.object(module, "_periodic_interp", scipy_interp)
            )
        yield


def scipy_buffer_flags(flags: np.ndarray, width: int) -> np.ndarray:
    """The ``maximum_filter`` dilation ``buffer_flags`` replaces."""
    if width < 0:
        raise ValueError("buffer width must be >= 0")
    if width == 0 or not flags.any():
        return flags.astype(bool)
    return (
        ndimage.maximum_filter(flags.astype(np.uint8), size=2 * width + 1) > 0
    )


def scipy_dilation() -> ContextManager:
    return mock.patch.object(app_base, "buffer_flags", scipy_buffer_flags)


def scipy_label_cores(
    refined: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``ndimage.label`` and ``sum_labels`` calls ``_label_cores``
    replaces."""
    labels, ncores = ndimage.label(refined)
    core_work = ndimage.sum_labels(
        work, labels, index=np.arange(1, ncores + 1)
    ) if ncores else np.zeros(0)
    return labels, core_work


def scipy_labels() -> ContextManager:
    return mock.patch.object(hybrid, "_label_cores", scipy_label_cores)


@contextmanager
def cold_reads():
    """Every store read misses: the read cache keeps no entry."""
    clear_read_cache()
    with mock.patch.object(store_module, "READ_CACHE_ENTRIES", 0):
        yield


@dataclass(frozen=True)
class Oracle:
    """A fast path, its oracle, and how to select each."""

    fast_path: str
    oracle: str
    fast: Callable[[], ContextManager]
    reference: Callable[[], ContextManager]


ORACLES = {
    "sweep": Oracle(
        "slab-sweep candidates", "hit-matrix candidates",
        sweep_everywhere, hit_matrix_everywhere,
    ),
    "subtract": Oracle(
        "batched _subtract_groups", "sequential Box.subtract sweep",
        nullcontext, sequential_subtraction,
    ),
    "scan-order": Oracle(
        "scan walk over the axes", "bisection over overlap_volume",
        nullcontext, bisected_scan_order,
    ),
    "rank-pad": Oracle(
        "rank-padded matched_volume sweep", "per-rank overlap_volume loop",
        nullcontext, per_rank_queries,
    ),
    "coalesce": Oracle(
        "coalesced owner maps", "uncoalesced maps",
        nullcontext, uncoalesced_maps,
    ),
    "cell-boxes": Oracle(
        "merged cell boxes", "one box per cell",
        nullcontext, unmerged_cells,
    ),
    "read-cache": Oracle(
        "LRU read-cache hit", "cold read", nullcontext, cold_reads,
    ),
    "indexed-coalesce": Oracle(
        "indexed coalesce", "greedy can_coalesce scan",
        nullcontext, greedy_coalescing,
    ),
    "box-overlap": Oracle(
        "rasterless block overlaps", "dense block sum of the mask",
        nullcontext, dense_box_overlaps,
    ),
    "interp": Oracle(
        "periodic interpolation", "map_coordinates(mode='grid-wrap')",
        nullcontext, scipy_interpolation,
    ),
    "dilation": Oracle(
        "running-count flag dilation", "maximum_filter",
        nullcontext, scipy_dilation,
    ),
    "core-labels": Oracle(
        "run union-find Core labels", "ndimage.label and sum_labels",
        nullcontext, scipy_labels,
    ),
}

SWEEP = ORACLES["sweep"]


# ---------------------------------------------------------------------------
# whole simulator replays: every geometry fast path against its oracle


def _replay(name: str, hierarchies) -> list:
    """Partition and measure the regrids, each step checked against the
    dense-raster oracle on the rasterized owner maps."""
    part = create("partitioner", name)
    sim = TraceSimulator()
    steps, previous, prev_h = [], None, None
    for step, hierarchy in enumerate(hierarchies):
        result = part.partition(hierarchy, 3, previous)
        result.validate(hierarchy)
        got = sim.measure_step(hierarchy, result, previous, prev_h, step)
        assert (
            got.comm_cells, got.interlevel_cells, got.migration_cells
        ) == dense.step_cells(hierarchy, result, previous)
        steps.append(got)
        previous, prev_h = result, hierarchy
    return steps


#: ``(row, partitioner)`` of every replay: the geometry rows under every
#: registered partitioner, the scan walk under the one that moves cells
#: in scan order.
REPLAYS = [
    (row, name)
    for row in (
        "sweep", "subtract", "rank-pad", "coalesce", "cell-boxes",
        "box-overlap", "core-labels",
    )
    for name in registry("partitioner")
] + [("scan-order", "sticky-sfc")]


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("row,name", REPLAYS)
@settings(
    max_examples=10,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(data=st.data())
def test_replay_matches_oracle(row, name, ndim, data):
    """Every registered partitioner, replayed over random regrids.

    Partitioning and measuring on the fast path and on its oracle give
    identical :class:`StepMetrics` (``previous`` too comes from the same
    path), and both match the dense oracle's cell counts.  Hypothesis
    does not shrink a failure here: shrinking whole replays takes many
    minutes, and the failing example is reported as drawn.
    """
    side = data.draw(st.sampled_from([4, 8]))
    hierarchies = [
        data.draw(nested_hierarchies(ndim, side)) for _ in range(3)
    ]
    oracle = ORACLES[row]
    with oracle.fast():
        fast = _replay(name, hierarchies)
    with oracle.reference():
        reference = _replay(name, hierarchies)
    assert fast == reference, f"{oracle.fast_path} != {oracle.oracle}"


@pytest.mark.parametrize("row,name", REPLAYS)
def test_replay_matches_oracle_on_3d_trace(row, name):
    """The replays of :func:`test_replay_matches_oracle` over bl3d's
    ``small`` trace, whose levels hold up to 14 patches, so the ``sweep``
    row serves the multi-row pair queries of a real 3-D regrid sequence
    (46 to 63 per replay under patch-lpt, nature+fable and sticky-sfc;
    the 2-D ``small`` traces hold one patch per level)."""
    hierarchies = [snap.hierarchy for snap in paper_trace("bl3d", "small")]
    oracle = ORACLES[row]
    with oracle.fast():
        fast = _replay(name, hierarchies)
    with oracle.reference():
        reference = _replay(name, hierarchies)
    assert fast == reference, f"{oracle.fast_path} != {oracle.oracle}"


# ---------------------------------------------------------------------------
# slab-sweep candidates vs the hit-matrix candidates, kernel by kernel


def corner_arrays(ndim: int, max_boxes: int = 20, max_coord: int = 64,
                  max_extent: int = 16):
    """Random (possibly overlapping, possibly empty) corner arrays."""

    def build(seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, max_coord, size=(n, ndim))
        ext = rng.integers(1, max_extent + 1, size=(n, ndim))
        return np.concatenate((lo, lo + ext), axis=1).astype(np.int64)

    return st.builds(
        build, st.integers(0, 2**31 - 1), st.integers(0, max_boxes)
    )


def _assert_pair_results_identical(a: np.ndarray, b: np.ndarray) -> None:
    """The sweep must be *bit-identical* to the hit matrix: same corner
    rows, same (ai, bj) source indices, same emission order."""
    with SWEEP.reference():
        ref = pair_intersections(a, b)
        ref_vol = overlap_volume(a, b)
    with SWEEP.fast():
        got = pair_intersections(a, b)
        got_vol = overlap_volume(a, b)
    assert got_vol == ref_vol
    for r, g in zip(ref, got):
        assert r.shape == g.shape
        np.testing.assert_array_equal(r, g)


def _assert_face_results_identical(
    corners: np.ndarray, ranks: np.ndarray
) -> None:
    with SWEEP.reference():
        ref = face_contacts(corners, ranks)
    with SWEEP.fast():
        got = face_contacts(corners, ranks)
    for r, g in zip(ref, got):
        assert r.shape == g.shape
        np.testing.assert_array_equal(r, g)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
class TestSweepCandidates:
    """The sweep and the hit matrix feed one arithmetic per kernel, so
    the kernels' outputs on the two paths differ only if the candidates
    do: every output must match bit for bit.  ``tests/dense_oracle.py``
    stays the oracle of the arithmetic itself."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pair_intersections_identical(self, ndim, data):
        a = data.draw(corner_arrays(ndim))
        b = data.draw(corner_arrays(ndim))
        _assert_pair_results_identical(a, b)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_face_contacts_identical(self, ndim, data):
        corners = data.draw(corner_arrays(ndim))
        seed = data.draw(st.integers(0, 2**31 - 1))
        ranks = np.random.default_rng(seed).integers(
            0, 4, size=corners.shape[0]
        ).astype(np.int32)
        _assert_face_results_identical(corners, ranks)

    def test_all_boxes_in_one_cell(self, ndim):
        # Adversarial: every box identical (one slab, every pair in it).
        row = [0] * ndim + [2] * ndim
        a = np.tile(np.asarray([row], dtype=np.int64), (40, 1))
        _assert_pair_results_identical(a, a)
        ranks = np.arange(40, dtype=np.int32)
        _assert_face_results_identical(a, ranks)

    def test_long_skinny_boxes(self, ndim):
        # Adversarial: extreme aspect ratios, one family long in axis 0
        # crossing an orthogonal family long in every other axis — half
        # the boxes span every slab at the median width.
        n = 30
        a = np.zeros((n, 2 * ndim), dtype=np.int64)
        b = np.zeros((n, 2 * ndim), dtype=np.int64)
        for i in range(n):
            a[i, 0], a[i, ndim] = 0, 600  # long in axis 0
            b[i, 0], b[i, ndim] = i * 3, i * 3 + 1
            for d in range(1, ndim):
                a[i, d], a[i, ndim + d] = i * 3, i * 3 + 1
                b[i, d], b[i, ndim + d] = 0, 600  # long elsewhere
        _assert_pair_results_identical(a, b)
        both = np.concatenate((a, b))
        ranks = np.arange(2 * n, dtype=np.int32)
        _assert_face_results_identical(both, ranks)

    def test_single_box_and_empty(self, ndim):
        one = np.asarray(
            [[0] * ndim + [3] * ndim], dtype=np.int64
        )
        empty = np.empty((0, 2 * ndim), dtype=np.int64)
        _assert_pair_results_identical(one, one)
        _assert_pair_results_identical(one, empty)
        _assert_pair_results_identical(empty, one)
        _assert_pair_results_identical(empty, empty)
        _assert_face_results_identical(one, np.zeros(1, dtype=np.int32))
        _assert_face_results_identical(empty, np.empty(0, dtype=np.int32))

    def test_abutting_boxes_pair_in_closed_query(self, ndim):
        # Face contacts need *touching* pairs; a tiling of unit-offset
        # slabs is all faces, no overlap.
        n = 24
        rows = []
        for i in range(n):
            lo = [i * 4] + [0] * (ndim - 1)
            hi = [(i + 1) * 4] + [8] * (ndim - 1)
            rows.append(lo + hi)
        corners = np.asarray(rows, dtype=np.int64)
        ranks = (np.arange(n) % 3).astype(np.int32)
        _assert_face_results_identical(corners, ranks)

    def test_domain_box_among_unit_boxes(self, ndim):
        # Mixed scales: one box covering the whole domain among unit
        # boxes spans every slab of the median (unit) width, and pairs
        # with every other box.
        side = 2 ** (16 // ndim)
        lo = np.random.default_rng(ndim).integers(0, side, size=(300, ndim))
        domain = [[0] * ndim + [side] * ndim]
        corners = np.concatenate(
            (domain, np.concatenate((lo, lo + 1), axis=1))
        ).astype(np.int64)
        ranks = (np.arange(corners.shape[0]) % 4).astype(np.int32)
        _assert_pair_results_identical(corners, corners)
        _assert_face_results_identical(corners, ranks)
        with SWEEP.fast(), counter_deltas() as c:
            pair_intersections(corners, corners)
            face_contacts(corners, ranks)
        assert c["repro_pair_sweep_queries_total"] == 2

    def test_long_boxes_widen_the_slabs(self, ndim):
        # 40 boxes long along every axis among 200 unit boxes span 1000
        # slabs each at the median (unit) width, 200 times the incidence
        # budget: the slabs widen until the incidences fit, and the
        # answer stays exact.
        rng = np.random.default_rng(ndim)
        lo = rng.integers(0, 1000, size=(200, ndim))
        unit = np.concatenate((lo, lo + 1), axis=1)
        start = rng.integers(0, 8, size=(40, ndim))
        long = np.concatenate((start, start + 992), axis=1)
        corners = np.concatenate((unit, long)).astype(np.int64)
        if ndim > 1:
            _, e = pairindex._sweep_axes(corners, corners, False)
            first, last = pairindex._slab_spans(
                corners[:, e], corners[:, ndim + e], False, 1000
            )
            assert last.max() < 100
            incidences = int((last - first + 1).sum())
            assert incidences <= pairindex._SLAB_INCIDENCE_FACTOR * 240
        ranks = (np.arange(corners.shape[0]) % 4).astype(np.int32)
        _assert_pair_results_identical(corners, corners)
        _assert_pair_results_identical(unit, long)
        _assert_face_results_identical(corners, ranks)

    def test_counters_record_pruning(self, ndim):
        rng = np.random.default_rng(7)
        lo = rng.integers(0, 4000, size=(600, ndim))
        a = np.concatenate((lo, lo + 4), axis=1).astype(np.int64)
        with SWEEP.fast(), counter_deltas() as c:
            pair_intersections(a, a)
        candidates = c["repro_pair_candidate_pairs_total"]
        assert c["repro_pair_queries_total"] == 1
        assert c["repro_pair_pair_product_total"] == 600 * 600
        assert c["repro_pair_bruteforce_pairs_total"] == 0
        assert 0 < candidates < c["repro_pair_pair_product_total"]
        # Exact candidates: every one of them intersects.
        assert c["repro_pair_exact_pairs_total"] == candidates


@st.composite
def join_operands(draw, ndim: int) -> np.ndarray:
    """A corner array of 0 to 40 rows for the join, at negative and
    positive coordinates, with zero extents, rows abutting the row
    before them, rows spanning the whole range and duplicate rows."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lo = rng.integers(-40, 40, size=(n, ndim))
    hi = lo + rng.integers(0, 12, size=(n, ndim))  # extent 0 included
    for i in range(1, n):
        kind = rng.integers(0, 6)
        if kind == 0:  # abuts row i - 1 along one axis
            x = rng.integers(0, ndim)
            lo[i], hi[i] = lo[i - 1], hi[i - 1]
            hi[i, x] = hi[i - 1, x] + rng.integers(0, 12)
            lo[i, x] = hi[i - 1, x]
        elif kind == 1:  # spans every slab
            lo[i], hi[i] = -48, 60
        elif kind == 2:  # duplicates an earlier row
            j = rng.integers(0, i)
            lo[i], hi[i] = lo[j], hi[j]
    return np.concatenate((lo, hi), axis=1).astype(np.int64)


@contextmanager
def chunked_hit_matrix():
    """Every pair query on the hit matrix, in blocks of at most 50 pairs."""
    with SWEEP.reference(), mock.patch.object(pairindex, "_CHUNK_PAIRS", 50):
        yield


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweep_candidates_are_the_hit_matrix(ndim, closed, data):
    """Both candidate paths return exactly the hit matrix's pairs.

    :func:`candidate_pairs` is ``np.nonzero`` of the interval test on
    every axis (``<=`` for a closed query): the same pairs in the same
    order, as int64, and not a superset.  It must be so with every query
    of two rows or more a side on the sweep, and with every query on the
    hit matrix cut into blocks of a few pairs, whose row offsets must
    carry into ``ai``.  Empty and one-row operands take the hit matrix
    on both.  A self-join (``a is b``) takes the sweep's mirrored path,
    which must equal the general path on a copy of ``a``.
    """
    a = data.draw(join_operands(ndim))
    b = a if data.draw(st.booleans()) else data.draw(join_operands(ndim))
    less = np.less_equal if closed else np.less
    hit = less(a[:, None, :ndim], b[None, :, ndim:])
    hit &= less(b[None, :, :ndim], a[:, None, ndim:])
    want = np.nonzero(hit.all(axis=2))
    calls = [(a, b)] + ([(a, a.copy())] if b is a else [])
    for path in (SWEEP.fast, chunked_hit_matrix):
        with path():
            for left, right in calls:
                got = pairindex.candidate_pairs(left, right, closed)
                for g, w in zip(got, want):
                    assert g.dtype == np.int64
                    np.testing.assert_array_equal(g, w)


def mixed_scale_corners() -> tuple[np.ndarray, np.ndarray]:
    """64 full-height 16x16x512 columns tiling a 128x128x512 domain, and
    600 boxes of 4x4x(12 or 24) at seeded positions inside them.

    The shape of a deep 3-D migration overlay: a column is 4 small boxes
    wide and 21-43 long, so every small box overlaps the columns'
    projections along z, and the sweep must pick x and y for its axes.
    Every small box lies in exactly one column, so the exact answer has
    600 pairs.
    """
    x, y = np.meshgrid(np.arange(0, 128, 16), np.arange(0, 128, 16))
    x, y = x.ravel(), y.ravel()
    zeros = np.zeros_like(x)
    columns = np.stack((x, y, zeros, x + 16, y + 16, zeros + 512), axis=1)
    rng = np.random.default_rng(11)
    xy = rng.integers(0, 32, size=(600, 2)) * 4
    z = rng.integers(0, 512 - 24, size=600)
    dz = rng.choice([12, 24], size=600)
    small = np.column_stack((xy, z, xy + 4, z + dz))
    return columns.astype(np.int64), small.astype(np.int64)


class TestMixedScaleSweep:
    """Large boxes among many small ones stay on the sweep path,
    bit-identical to the hit matrix."""

    def test_kernels_match_bruteforce(self):
        columns, small = mixed_scale_corners()
        column_ranks = (np.arange(columns.shape[0]) % 4).astype(np.int32)
        small_ranks = np.random.default_rng(5).integers(
            0, 4, size=small.shape[0]
        ).astype(np.int32)
        both = np.concatenate((columns, small))
        both_ranks = np.concatenate((column_ranks, small_ranks))

        def kernels():
            return (
                pair_intersections(columns, small),
                overlap_volume(columns, small),
                matched_volume(columns, column_ranks, small, small_ranks),
                face_contacts(both, both_ranks),
            )

        with SWEEP.reference():
            ref = kernels()
        for path in (nullcontext, SWEEP.fast):
            with path():
                got = kernels()
            assert got[1:3] == ref[1:3], path
            for r, g in zip(ref[0] + ref[3], got[0] + got[3]):
                assert r.dtype == g.dtype
                np.testing.assert_array_equal(r, g)

    def test_overflowing_query_prunes_to_exact(self):
        columns, small = mixed_scale_corners()
        with counter_deltas() as c:
            corners, _, _ = pair_intersections(columns, small)
        assert corners.shape[0] == 600
        assert c["repro_pair_sweep_queries_total"] == 1
        assert c["repro_pair_candidate_pairs_total"] == 600

    def test_zero_extent_boxes_terminate(self):
        # Zero-extent boxes: 99 needles flat in x and y beside one
        # 4096-wide plate.  The median extent along a flat axis is 0, so
        # the slab width starts at 1 and must double to a finite width,
        # and a flat box must still span the slab that holds its lo.
        z = np.arange(99)
        needles = np.column_stack((0 * z, 0 * z, z, 0 * z, 0 * z, z + 1))
        corners = np.concatenate(
            ([[0, 0, 0, 4096, 4096, 1]], needles)
        ).astype(np.int64)
        _assert_pair_results_identical(corners, corners)


# ---------------------------------------------------------------------------
# batched subtraction vs the sequential Box.subtract sweep


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_subtract_matches_sequential_sweep(ndim, data):
    """Batched overlay/subtract is bit-identical to the per-box sweep.

    Not just the same region: the batched engine must emit the *same
    fragment rows in the same order*, because partitioners consume the
    overlay output structurally.
    """
    top_boxes = data.draw(disjoint_boxlists(max_boxes=6, ndim=ndim))
    bottom_boxes = data.draw(disjoint_boxlists(max_boxes=6, ndim=ndim))
    top = box_corners(top_boxes, ndim)
    bottom = box_corners(bottom_boxes, ndim)
    top_ranks = np.arange(top.shape[0], dtype=np.int32) % 3
    bottom_ranks = np.arange(bottom.shape[0], dtype=np.int32) % 3
    row = ORACLES["subtract"]
    with row.fast():
        c_fast, r_fast = overlay_corners(top, top_ranks, bottom, bottom_ranks)
    with row.reference():
        c_ref, r_ref = overlay_corners(top, top_ranks, bottom, bottom_ranks)
    np.testing.assert_array_equal(c_fast, c_ref)
    np.testing.assert_array_equal(r_fast, r_ref)
    assert r_fast.dtype == r_ref.dtype


# ---------------------------------------------------------------------------
# the scan walk vs the bisection over overlap_volume queries


@st.composite
def scan_regions(draw, ndim: int) -> OwnerMap:
    """A sparse to full region of a 1-4-D grid, cut into the boxes
    ``OwnerMap.from_raster`` makes of a raster of three ranks."""
    side = 3 if ndim == 4 else 6
    shape = tuple(draw(st.integers(1, side)) for _ in range(ndim))
    density = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    raster = np.where(
        rng.random(shape) < density, rng.integers(0, 3, size=shape), NO_OWNER
    )
    return OwnerMap.from_raster(raster.astype(np.int32))


def _flat_cells(corners: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major flat indices of the cells the rows cover."""
    ndim = len(shape)
    mask = np.zeros(shape, dtype=bool)
    for row in corners:
        mask[tuple(slice(a, b) for a, b in zip(row[:ndim], row[ndim:]))] = True
    return np.flatnonzero(mask)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scan_split_matches_flatnonzero(ndim, data):
    """For every ``k``, on the walk and on the bisection alike, the
    chosen and remaining rows are disjoint and cover exactly
    ``np.flatnonzero(mask)[:k]`` and ``[k:]``, and each lies inside the
    input row its source index names."""
    region = data.draw(scan_regions(ndim))
    shape, corners = region.shape, region.corners
    cells = np.flatnonzero(region.rasterize() != NO_OWNER)
    row = ORACLES["scan-order"]
    for k in range(1, cells.size + 1):
        for path in (row.fast, row.reference):
            with path():
                split = split_in_scan_order(corners, shape, k)
            for pieces, src, want in (
                (split[0], split[1], cells[:k]),
                (split[2], split[3], cells[k:]),
            ):
                assert int(corner_volumes(pieces).sum()) == want.size
                np.testing.assert_array_equal(_flat_cells(pieces, shape), want)
                parent = corners[src]
                assert (pieces[:, :ndim] >= parent[:, :ndim]).all()
                assert (pieces[:, ndim:] <= parent[:, ndim:]).all()


# ---------------------------------------------------------------------------
# the rank-padded matched_volume sweep vs the per-rank loop


@st.composite
def ranked_corners(draw, ndim: int, labels: Sequence[int]):
    """Random corner rows, zero-extent and negative ones among them,
    each owned by a rank drawn from ``labels`` (int32)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(0, 24))
    lo = rng.integers(-16, 48, size=(n, ndim))
    ext = rng.integers(0, 17, size=(n, ndim))
    corners = np.concatenate((lo, lo + ext), axis=1).astype(np.int64)
    return corners, rng.choice(np.asarray(labels, dtype=np.int32), size=n)


def naive_matched_volume(a, a_ranks, b, b_ranks) -> int:
    """``sum |a_i ∩ b_j|`` over equal-rank pairs, one pair at a time."""
    ndim = a.shape[1] // 2
    total = 0
    for i, j in itertools.product(range(a.shape[0]), range(b.shape[0])):
        if a_ranks[i] == b_ranks[j]:
            width = np.minimum(a[i, ndim:], b[j, ndim:]) - np.maximum(
                a[i, :ndim], b[j, :ndim]
            )
            total += int(np.prod(np.clip(width, 0, None)))
    return total


def _group_sizes(a_ranks: np.ndarray, b_ranks: np.ndarray):
    """``(labels, n_a per label, n_b per label)`` over both operands."""
    labels = np.union1d(a_ranks, b_ranks)
    return (
        labels,
        np.array([(a_ranks == r).sum() for r in labels], dtype=np.int64),
        np.array([(b_ranks == r).sum() for r in labels], dtype=np.int64),
    )


@pytest.mark.parametrize("ndim", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_padded_sweep_matches_per_rank_loop(ndim, data):
    """Any int32 labels (negative, sparse, present in one operand only),
    empty operands and zero-extent rows: the padded sweep sums what the
    per-rank loop sums and charges the same pair product, with the
    budget far above the block, exactly at it and one cell below."""
    pool = data.draw(
        st.lists(
            st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=6,
            unique=True,
        )
    )
    k = data.draw(st.integers(0, len(pool) - 1))
    a, a_ranks = data.draw(ranked_corners(ndim, pool[: len(pool) - k]))
    b, b_ranks = data.draw(ranked_corners(ndim, pool[k:]))
    labels, n_a, n_b = _group_sizes(a_ranks, b_ranks)
    pairs = int(n_a @ n_b)
    shared = int(((n_a > 0) & (n_b > 0)).sum())
    padded = labels.size * int(n_a.max(initial=0)) * int(n_b.max(initial=0))
    want = naive_matched_volume(a, a_ranks, b, b_ranks)
    row = ORACLES["rank-pad"]
    with row.reference(), counter_deltas() as c:
        assert matched_volume(a, a_ranks, b, b_ranks) == want
    assert c["repro_pair_queries_total"] == shared
    assert c["repro_pair_pair_product_total"] == pairs
    for budget in (10**18, padded, padded - 1):
        with (
            mock.patch.object(ownermap, "_RANK_PAD_CELLS", budget),
            counter_deltas() as c,
        ):
            assert matched_volume(a, a_ranks, b, b_ranks) == want
        assert c["repro_pair_pair_product_total"] == pairs
        queries = shared if budget < padded else min(shared, 1)
        assert c["repro_pair_queries_total"] == queries, budget


@pytest.mark.parametrize("name", ["nature+fable", "sticky-sfc"])
def test_rank_paths_charge_the_same_pair_product(small_traces, name):
    """A whole replay adds the same amount to the pair-product counter
    on both paths, while the padded sweep issues fewer queries."""
    moved = []
    for path in (ORACLES["rank-pad"].fast, ORACLES["rank-pad"].reference):
        with path(), counter_deltas() as c:
            TraceSimulator().run(
                small_traces["bl2d"], create("partitioner", name), 8
            )
        moved.append(
            (c["repro_pair_pair_product_total"], c["repro_pair_queries_total"])
        )
    (fast_product, fast_queries), (ref_product, ref_queries) = moved
    assert fast_product == ref_product > 0
    assert fast_queries < ref_queries


# ---------------------------------------------------------------------------
# indexed coalesce vs the greedy can_coalesce scan


def _assert_coalesce_identical(boxes: Sequence[Box]) -> None:
    """Same boxes in the same order: the order of a level's patches
    feeds every content hash downstream of the trace."""
    row = ORACLES["indexed-coalesce"]
    with row.fast():
        fast = BoxList(boxes).coalesced()
    with row.reference():
        reference = BoxList(boxes).coalesced()
    assert fast.boxes == reference.boxes
    assert fast.boxes == tuple(greedy_coalesce(boxes))


@pytest.mark.parametrize("ndim", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_indexed_coalesce_matches_greedy_scan(ndim, data):
    _assert_coalesce_identical(
        data.draw(disjoint_boxlists(max_boxes=8, ndim=ndim)).boxes
    )


@st.composite
def shuffled_tilings(draw, ndim: int, side: int = 12, max_cuts: int = 24):
    """One box cut by random guillotine cuts, the pieces shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pieces = [Box((0,) * ndim, (side,) * ndim)]
    for _ in range(draw(st.integers(0, max_cuts))):
        box = pieces.pop(int(rng.integers(len(pieces))))
        axis = int(rng.integers(ndim))
        if box.shape[axis] < 2:
            pieces.append(box)
            continue
        cut = int(rng.integers(box.lo[axis] + 1, box.hi[axis]))
        below = Box(box.lo, box.hi[:axis] + (cut,) + box.hi[axis + 1:])
        above = Box(box.lo[:axis] + (cut,) + box.lo[axis + 1:], box.hi)
        pieces += [below, above]
    return draw(st.permutations(pieces))


@pytest.mark.parametrize("ndim", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_indexed_coalesce_matches_greedy_scan_on_tilings(ndim, data):
    _assert_coalesce_identical(data.draw(shuffled_tilings(ndim)))


@pytest.mark.parametrize("shape", [(8, 8), (4, 5, 6)])
def test_indexed_coalesce_on_shuffled_unit_cells(shape):
    """Every cell of a box, shuffled: dozens of merges over several
    passes.  The greedy scan need not end in one box (in 3-D, 120 cells
    stop at 30 boxes that pairwise do not coalesce)."""
    cells = [
        Box(idx, tuple(i + 1 for i in idx))
        for idx in itertools.product(*(range(s) for s in shape))
    ]
    order = np.random.default_rng(len(shape)).permutation(len(cells))
    cells = [cells[k] for k in order]
    passes: list[int] = []
    merged = greedy_coalesce(cells, passes)
    assert len(merged) <= len(cells) // 4
    assert len(passes) >= 5
    _assert_coalesce_identical(cells)


# ---------------------------------------------------------------------------
# rasterless block overlaps vs the dense block sum of the mask


@st.composite
def overlap_calls(draw, ndim: int):
    """The arguments of one ``block_overlaps`` call.

    Up to 6 rows, possibly empty and overlapping, with a scalar factor
    and weight or per-row ones (factors 1-4, weights 0.5, 2, 3 and 8).
    Rows reach below 0 and past ``shape * f``; in a quarter of the calls
    every row lies wholly outside the grid, so every row clips away.
    """
    side = 3 if ndim == 4 else 6
    shape = tuple(draw(st.integers(1, side)) for _ in range(ndim))
    n = draw(st.integers(0, 6))
    factors = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    weights = draw(
        st.lists(st.sampled_from([0.5, 2.0, 3.0, 8.0]), min_size=n, max_size=n)
    )
    outside = draw(st.integers(0, 3)) == 0
    rows = []
    for f in factors:
        lo = [draw(st.integers(-2 * f, (s + 1) * f)) for s in shape]
        hi = [a + draw(st.integers(0, 3 * f + 2)) for a in lo]
        if outside:
            axis = draw(st.integers(0, ndim - 1))
            gap = draw(st.integers(0, 3))
            if draw(st.booleans()):
                shift = shape[axis] * f - lo[axis] + gap
            else:
                shift = -hi[axis] - gap
            lo[axis] += shift
            hi[axis] += shift
        rows.append(lo + hi)
    corners = np.asarray(rows, dtype=np.int64).reshape(n, 2 * ndim)
    if n and draw(st.booleans()):
        return shape, corners, factors[0], weights[0]
    return shape, corners, np.asarray(factors), np.asarray(weights)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(
    max_examples=100,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(data=st.data())
def test_box_overlap_matches_dense_block_sum(ndim, data):
    """One call's weighted block overlaps equal the rows' dense block
    sums, bit for bit: float sums of integer-valued volumes are exact,
    and a block no row overlaps holds ``+0.0``."""
    shape, corners, factor, weight = data.draw(overlap_calls(ndim))
    want = dense_block_overlaps(shape, corners, factor, weight)
    row = ORACLES["box-overlap"]
    for path in (row.fast, row.reference):
        with path():
            got = raster.block_overlaps(shape, corners, factor, weight)
        assert _same_bits(got, want), (got, want)


# ---------------------------------------------------------------------------
# the numpy kernels of trace generation and Nature+Fable vs scipy


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: tells ``-0.0`` from ``0.0``."""
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


@st.composite
def periodic_samples(draw):
    """A 1-3-D field with 1-8 cells per axis and points to sample it at.

    Each axis's coordinates are uniform draws from ``[-3n, 4n]``, draws
    from ``[0, 1)`` with bits below ``2**-53`` (where ``1 - (1 - x)`` is
    not ``x``, unlike any draw the wider interval rounds to), and the
    edge values of the wrap (``-n``, ``-2n``, ``n``, ``2n``, ``n - 1``,
    ``n - 0.5``, ``-0.0`` and the doubles next to 0 and ``n - 1``), each
    axis shuffled on its own.  A fifth of the field's cells are ``-0.0``.
    """
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 8)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    npoints = draw(st.integers(1, 24))
    field = np.where(rng.random(shape) < 0.2, -0.0, rng.normal(size=shape))
    coords = []
    for n in shape:
        edges = [
            -n, -2 * n, n, 2 * n, n - 1, n - 0.5, -0.0,
            np.nextafter(0.0, -1.0), np.nextafter(n - 1.0, n),
        ]
        uniform = rng.uniform(-3 * n, 4 * n, size=npoints)
        fine = rng.random(npoints) * rng.random(npoints)
        coords.append(rng.permutation(np.concatenate((uniform, fine, edges))))
    return field, coords


@settings(max_examples=300, deadline=None)
@given(sample=periodic_samples())
def test_periodic_interp_matches_map_coordinates(sample):
    field, coords = sample
    assert _same_bits(
        app_base._periodic_interp(field, coords), scipy_interp(field, coords)
    )


def test_periodic_interp_chunks_large_grids():
    """Points beyond one chunk, in a field that is not C-contiguous."""
    rng = np.random.default_rng(4)
    field = rng.normal(size=(24, 40, 48)).transpose(2, 0, 1)
    coords = [rng.uniform(-2 * n, 3 * n, size=(70, 500)) for n in field.shape]
    assert 70 * 500 > app_base._INTERP_CHUNK
    assert _same_bits(
        app_base._periodic_interp(field, coords), scipy_interp(field, coords)
    )


@st.composite
def flag_rasters(draw, max_extent: int = 12):
    """A 1-3-D boolean raster of sparse to dense flags."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(ndim))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return rng.random(shape) < density


@settings(max_examples=300, deadline=None)
@given(flags=flag_rasters(), width=st.integers(1, 5))
def test_buffer_flags_matches_maximum_filter(flags, width):
    """Widths beyond an extent too: the window clips at both edges."""
    assert _same_bits(buffer_flags(flags, width), scipy_buffer_flags(flags, width))


def test_buffer_flags_wide_windows():
    """Windows of more than 255 cells count in 16 bits: a window holding
    exactly 256 flags must not read as empty."""
    flags = np.zeros((3, 900), dtype=bool)
    flags[0, 300:556] = True
    flags[1] = np.random.default_rng(5).random(900) < 0.5
    for width in (127, 128, 300, 800):
        assert _same_bits(
            buffer_flags(flags, width), scipy_buffer_flags(flags, width)
        )


@settings(max_examples=300, deadline=None)
@given(refined=flag_rasters(max_extent=10), seed=st.integers(0, 2**31 - 1))
def test_core_labels_match_ndimage(refined, seed):
    """Same labels, numbered alike, and the same Core sums, bit for bit."""
    work = np.random.default_rng(seed).integers(0, 64, size=refined.shape)
    work = work.astype(np.float64)
    labels, core_work = hybrid._label_cores(refined, work)
    want_labels, want_work = scipy_label_cores(refined, work)
    np.testing.assert_array_equal(labels, want_labels)
    assert _same_bits(core_work, want_work)


def _small_trace(app: str) -> tuple[str, bytes]:
    """The ``small`` trace's bytes and the kernel's final field."""
    ndim = workload_ndim(app)
    kernel = make_application(app, shape=shadow_shape("small", ndim))
    trace = generate_trace(kernel, paper_config("small", ndim))
    return json.dumps(trace.to_json()), kernel.indicator_field().tobytes()


@pytest.mark.parametrize("app", ["tp2d", "tp3d"])
@pytest.mark.parametrize("row", ["interp", "dilation"])
def test_small_trace_matches_oracle(row, app):
    oracle = ORACLES[row]
    with oracle.fast():
        fast = _small_trace(app)
    with oracle.reference():
        reference = _small_trace(app)
    assert fast == reference, f"{oracle.fast_path} != {oracle.oracle}"


# ---------------------------------------------------------------------------
# LRU read-cache hit vs a cold read


@pytest.fixture
def fresh_read_cache():
    """An empty read cache and zeroed counters, emptied again after."""
    clear_read_cache()
    reset_metrics()
    yield
    clear_read_cache()


def test_warm_read_hits_cache_across_store_instances(tmp_path, fresh_read_cache):
    result = _make_result()
    ResultStore(tmp_path).put_result(result)
    row = ORACLES["read-cache"]
    with row.fast():
        first = ResultStore(tmp_path).get_result(result.key)
        second = ResultStore(tmp_path).get_result(result.key)
    stats = read_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1, stats
    with row.reference():
        cold = ResultStore(tmp_path).get_result(result.key)
    assert read_cache_stats()["hits"] == 1  # the oracle never hits
    assert first is not None and second is not None and cold is not None
    for name, want in result.arrays.items():
        np.testing.assert_array_equal(np.asarray(first.arrays[name]), want)
        np.testing.assert_array_equal(np.asarray(second.arrays[name]), want)
        np.testing.assert_array_equal(np.asarray(cold.arrays[name]), want)
        assert first.arrays[name].dtype == want.dtype
        assert second.arrays[name].dtype == want.dtype
        assert cold.arrays[name].dtype == want.dtype
