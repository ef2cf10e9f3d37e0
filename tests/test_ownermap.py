"""Property tests: sparse owner-map calculus == dense raster reductions.

The sparse :class:`~repro.geometry.OwnerMap` path is the production
representation; the dense reductions of :mod:`tests.dense_oracle` are
its oracle.  These tests drive both against each other on random N-D
inputs (random owner rasters, random disjoint box assignments, and
random properly-nested hierarchies built from the shared ``boxes_nd``
strategies) and assert exact agreement, plus the representation laws
the refactor ships under: ``from_raster(rasterize(m)) == m`` and
semantic (decomposition-independent) equality.  Coalesced maps are
checked against the unmerged maps they came from.  Whole simulator steps
of every registered partitioner are replayed under every pair-index
mode against the ``bruteforce`` oracle and the dense one.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import create, registry
from repro.geometry import (
    Box,
    BoxList,
    NO_OWNER,
    OwnerMap,
    face_contacts,
    matched_volume,
    overlap_volume,
    pair_index_forced,
    pair_intersections,
    rasterize_owners,
)
from repro.hierarchy import GridHierarchy, PatchLevel
from repro.partition import (
    DomainSfcPartitioner,
    PartitionResult,
    PatchBasedPartitioner,
    proc_loads,
)
from repro.simulator import (
    TraceSimulator,
    ghost_exchange_cells,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
    per_rank_comm_cells,
)
from repro.telemetry import counter_deltas

from tests import dense_oracle as dense
from tests.strategies import disjoint_boxlists


def owner_rasters(ndim: int, side: int, nprocs: int = 4):
    """Random dense owner rasters with unrefined holes."""

    def build(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        raster = rng.integers(0, nprocs, size=(side,) * ndim).astype(np.int32)
        raster[rng.random((side,) * ndim) < 0.3] = NO_OWNER
        return raster

    return st.builds(build, st.integers(0, 2**31 - 1))


@st.composite
def nested_hierarchies(draw, ndim: int = 2, side: int | None = None):
    """Random properly-nested factor-2 hierarchies (``side`` drawn from
    4 or 8 unless given)."""
    side = side or draw(st.sampled_from([4, 8]))
    domain = Box((0,) * ndim, (side,) * ndim)
    levels = [PatchLevel(0, [domain], ratio=1)]
    parent = BoxList([domain])
    depth = draw(st.integers(min_value=1, max_value=2))
    for l in range(1, depth + 1):
        refined_parent = parent.refine(2)
        raw = draw(
            disjoint_boxlists(
                max_boxes=4, max_coord=side * 2**l, ndim=ndim
            )
        )
        clipped: list[Box] = []
        for b in raw:
            for p in refined_parent:
                piece = b.intersect(p)
                if piece is not None:
                    clipped.append(piece)
        patches = BoxList(clipped).disjointified().coalesced()
        if patches.ncells == 0:
            break
        levels.append(PatchLevel(l, patches, ratio=2))
        parent = patches
    return GridHierarchy(domain, levels)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(owner_rasters(2, 8))
    def test_from_raster_rasterize_2d(self, raster):
        m = OwnerMap.from_raster(raster)
        m.validate_disjoint()
        np.testing.assert_array_equal(m.rasterize(), raster)
        assert OwnerMap.from_raster(m.rasterize()) == m

    @settings(max_examples=25, deadline=None)
    @given(owner_rasters(3, 5))
    def test_from_raster_rasterize_3d(self, raster):
        m = OwnerMap.from_raster(raster)
        np.testing.assert_array_equal(m.rasterize(), raster)
        assert OwnerMap.from_raster(m.rasterize()) == m

    @settings(max_examples=40, deadline=None)
    @given(disjoint_boxlists(max_boxes=5, max_coord=12, ndim=2),
           st.integers(0, 2**31 - 1))
    def test_assignments_match_dense_rasterization(self, boxlist, seed):
        rng = np.random.default_rng(seed)
        domain = Box((0, 0), (12, 12))
        assignments = [
            (b, int(rng.integers(0, 4))) for b in boxlist
        ]
        m = OwnerMap.from_assignments(assignments, domain)
        np.testing.assert_array_equal(
            m.rasterize(), rasterize_owners(assignments, domain)
        )

    def test_equality_is_semantic_not_structural(self):
        # The same cell->rank mapping cut into different boxes.
        a = OwnerMap.from_assignments(
            [(Box((0, 0), (2, 4)), 1)], Box((0, 0), (4, 4))
        )
        b = OwnerMap.from_assignments(
            [(Box((0, 0), (1, 4)), 1), (Box((1, 0), (2, 4)), 1)],
            Box((0, 0), (4, 4)),
        )
        assert a == b
        c = OwnerMap.from_assignments(
            [(Box((0, 0), (2, 4)), 2)], Box((0, 0), (4, 4))
        )
        assert a != c


@st.composite
def cut_owner_maps(draw, ndim: int, side: int = 12):
    """``(whole, cut)``: a random owner map and the same map with its
    boxes cut at random points and its rows shuffled."""
    boxes = draw(disjoint_boxlists(max_boxes=6, max_coord=side, ndim=ndim))
    ranks = draw(st.lists(st.integers(0, 2), min_size=len(boxes),
                          max_size=len(boxes)))
    domain = Box((0,) * ndim, (side,) * ndim)
    whole = OwnerMap.from_assignments(zip(boxes, ranks), domain)
    pieces: list[tuple[Box, int]] = []
    for box, rank in whole.boxes():
        parts = [box]
        for _ in range(draw(st.integers(0, 4))):
            axis = draw(st.integers(0, ndim - 1))
            at = draw(st.integers(0, side))
            parts = [
                half
                for p in parts
                for half in (
                    p.split(axis, at) if p.lo[axis] < at < p.hi[axis] else (p,)
                )
            ]
        pieces.extend((p, rank) for p in parts)
    pieces = draw(st.permutations(pieces))
    return whole, OwnerMap.from_assignments(pieces, domain)


def joinable_rows(m: OwnerMap) -> list[tuple[int, int, int]]:
    """Brute force: ``(i, j, axis)`` of same-rank rows where box ``i``
    ends where box ``j`` starts along ``axis`` over an equal
    cross-section."""
    nd = m.ndim
    lo, hi = m.corners[:, :nd], m.corners[:, nd:]
    out = []
    for i in range(m.nboxes):
        for j in range(m.nboxes):
            if i == j or m.ranks[i] != m.ranks[j]:
                continue
            for d in range(nd):
                same_section = all(
                    lo[i, e] == lo[j, e] and hi[i, e] == hi[j, e]
                    for e in range(nd)
                    if e != d
                )
                if hi[i, d] == lo[j, d] and same_section:
                    out.append((i, j, d))
    return out


def unit_cells(cells, ranks, shape) -> OwnerMap:
    """An owner map of one unit box per cell."""
    ndim = len(shape)
    corners = np.asarray([tuple(c) + tuple(x + 1 for x in c) for c in cells])
    return OwnerMap(shape, corners.reshape(-1, 2 * ndim), ranks)


class TestCoalesced:
    """The merged map is the unmerged map in fewer boxes."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merged_equals_unmerged(self, ndim, data):
        whole, cut = data.draw(cut_owner_maps(ndim))
        merged = cut.coalesced()
        assert merged == cut and merged == whole
        np.testing.assert_array_equal(merged.rasterize(), cut.rasterize())
        merged.validate_disjoint()
        assert merged.nboxes <= cut.nboxes
        if merged.nboxes == cut.nboxes:
            assert merged is cut
        assert merged.coalesced() is merged
        assert joinable_rows(merged) == []
        assert ghost_exchange_cells(merged) == ghost_exchange_cells(cut)
        assert ghost_message_pairs(merged) == ghost_message_pairs(cut)

    def test_two_halves_of_unit_cells_give_two_boxes(self):
        cells = [(x, y) for x in range(4) for y in range(4)]
        ranks = [0 if y < 2 else 1 for _, y in cells]
        m = unit_cells(cells, ranks, (4, 4))
        merged = m.coalesced()
        assert merged.nboxes == 2
        rows = sorted(
            (int(r), tuple(c))
            for c, r in zip(merged.corners.tolist(), merged.ranks)
        )
        assert rows == [(0, (0, 0, 4, 2)), (1, (0, 2, 4, 4))]
        assert merged == m

    @pytest.mark.parametrize("depth", [0, 2])
    def test_l_shape_gives_two_boxes(self, depth):
        """An L of one rank, in 2-D or extruded ``depth`` cells into 3-D."""
        cells = [(x, 0) for x in range(4)] + [(3, y) for y in range(1, 4)]
        shape = (4, 4)
        if depth:
            cells = [c + (z,) for c in cells for z in range(depth)]
            shape += (depth,)
        m = unit_cells(cells, [5] * len(cells), shape)
        merged = m.coalesced()
        assert merged.nboxes == 2
        assert merged == m and merged.ncells == len(cells)

    def test_empty_and_single_box_maps_come_back_unchanged(self):
        empty = OwnerMap.empty((4, 4))
        single = unit_cells([(1, 2)], [0], (4, 4))
        assert empty.coalesced() is empty
        assert single.coalesced() is single

    def test_ranks_never_merge_across(self):
        cells = [(x, y) for x in range(4) for y in range(4)]
        m = unit_cells(cells, [(x + y) % 2 for x, y in cells], (4, 4))
        assert m.coalesced() is m

    @pytest.mark.parametrize("source", ["maps", "owners"])
    def test_partition_results_hold_merged_maps(self, source):
        raster = np.full((6, 6), NO_OWNER, dtype=np.int32)
        raster[:4, :3] = 1
        raster[:4, 3:] = 2
        owned = raster >= 0
        units = unit_cells(np.argwhere(owned), raster[owned], (6, 6))
        inputs = {"maps": (units,), "owners": (raster,)}[source]
        (held,) = PartitionResult(**{source: inputs}, nprocs=3).maps
        assert held.nboxes == 2 and held == units
        assert held.coalesced() is held


@pytest.mark.parametrize("ndim,side", [(2, 8), (3, 5)])
class TestMetricsAgree:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ghost_metrics(self, ndim, side, data):
        raster = data.draw(owner_rasters(ndim, side))
        m = OwnerMap.from_raster(raster)
        assert ghost_exchange_cells(m, 2) == dense.ghost_exchange_cells(raster, 2)
        assert ghost_message_pairs(m) == dense.ghost_message_pairs(raster)
        np.testing.assert_array_equal(
            per_rank_comm_cells(m, 4), dense.per_rank_comm_cells(raster, 4)
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_interlevel(self, ndim, side, data):
        coarse = data.draw(owner_rasters(ndim, side))
        fine = data.draw(owner_rasters(ndim, side * 2))
        assert interlevel_transfer_cells(
            OwnerMap.from_raster(coarse), OwnerMap.from_raster(fine), 2
        ) == dense.interlevel_transfer_cells(coarse, fine, 2)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_migration(self, ndim, side, data):
        prev_rasters = (
            data.draw(owner_rasters(ndim, side)),
            data.draw(owner_rasters(ndim, side * 2)),
        )
        cur_rasters = (
            data.draw(owner_rasters(ndim, side)),
            data.draw(owner_rasters(ndim, side * 2)),
        )
        prev = PartitionResult(owners=prev_rasters, nprocs=4)
        cur = PartitionResult(owners=cur_rasters, nprocs=4)
        assert migration_cells(prev, cur) == dense.migration_cells(
            prev_rasters, cur_rasters
        )


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


INDEXED_MODES = ("grid", "sweep")


def _assert_pair_results_identical(a: np.ndarray, b: np.ndarray) -> None:
    """Indexed modes must be *bit-identical* to brute force: same corner
    rows, same (ai, bj) source indices, same emission order."""
    with pair_index_forced("bruteforce"):
        ref = pair_intersections(a, b)
        ref_vol = overlap_volume(a, b)
    for mode in INDEXED_MODES:
        with pair_index_forced(mode):
            got = pair_intersections(a, b)
            got_vol = overlap_volume(a, b)
        assert got_vol == ref_vol
        for r, g in zip(ref, got):
            assert r.shape == g.shape
            np.testing.assert_array_equal(r, g)


def _assert_face_results_identical(
    corners: np.ndarray, ranks: np.ndarray
) -> None:
    with pair_index_forced("bruteforce"):
        ref = face_contacts(corners, ranks)
    for mode in INDEXED_MODES:
        with pair_index_forced(mode):
            got = face_contacts(corners, ranks)
        for r, g in zip(ref, got):
            assert r.shape == g.shape
            np.testing.assert_array_equal(r, g)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
class TestPairIndex:
    """The grid-bucket pair index is a pure pruning layer: every indexed
    mode must reproduce the brute-force kernels bit for bit."""

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
        # Adversarial: every box identical (maximal bucket collisions).
        row = [0] * ndim + [2] * ndim
        a = np.tile(np.asarray([row], dtype=np.int64), (40, 1))
        _assert_pair_results_identical(a, a)
        ranks = np.arange(40, dtype=np.int32)
        _assert_face_results_identical(a, ranks)

    def test_long_skinny_boxes(self, ndim):
        # Adversarial: extreme aspect ratios, one family long in axis 0
        # crossing an orthogonal family long in every other axis — the
        # median cell is half a long side, so every pair is a candidate.
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

    def test_abutting_boxes_share_closed_bucket(self, ndim):
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
        # boxes spans 32k-65k median (unit) cells, far over the incidence
        # budget.  The grid coarsens its cell until the incidences fit —
        # it must terminate, stay exact, and never take the sweep.
        side = 2 ** (16 // ndim)
        lo = np.random.default_rng(ndim).integers(0, side, size=(300, ndim))
        domain = [[0] * ndim + [side] * ndim]
        corners = np.concatenate(
            (domain, np.concatenate((lo, lo + 1), axis=1))
        ).astype(np.int64)
        ranks = (np.arange(corners.shape[0]) % 4).astype(np.int32)
        _assert_pair_results_identical(corners, corners)
        _assert_face_results_identical(corners, ranks)
        with pair_index_forced("grid"), counter_deltas() as c:
            pair_intersections(corners, corners)
            face_contacts(corners, ranks)
        assert c["repro_pair_grid_queries_total"] == 2
        assert c.get("repro_pair_sweep_queries_total", 0) == 0

    def test_counters_record_pruning(self, ndim):
        rng = np.random.default_rng(7)
        lo = rng.integers(0, 4000, size=(600, ndim))
        a = np.concatenate((lo, lo + 4), axis=1).astype(np.int64)
        with pair_index_forced("grid"), counter_deltas() as c:
            pair_intersections(a, a)
        candidates = c["repro_pair_candidate_pairs_total"]
        assert c["repro_pair_queries_total"] == 1
        assert c["repro_pair_pair_product_total"] == 600 * 600
        assert c["repro_pair_bruteforce_pairs_total"] == 0
        assert 0 < candidates < c["repro_pair_pair_product_total"]
        assert c["repro_pair_exact_pairs_total"] <= candidates


def mixed_scale_corners() -> tuple[np.ndarray, np.ndarray]:
    """64 full-height 16x16x512 columns tiling a 128x128x512 domain, and
    600 boxes of 4x4x(12 or 24) at seeded positions inside them.

    The shape of a deep 3-D migration overlay: each column spans ~700
    cells of the median box extent, which overflows the grid's incidence
    budget at its first cell size.  Every small box lies in exactly one
    column, so the exact answer has 600 pairs.
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


class TestMixedScaleGrid:
    """Large boxes among many small ones stay on the grid path: the cell
    coarsens until the incidences fit, bit-identical to brute force."""

    def test_kernels_match_bruteforce_without_sweep(self):
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

        with pair_index_forced("bruteforce"):
            ref = kernels()
        for mode in ("auto", "grid"):
            with pair_index_forced(mode), counter_deltas() as c:
                got = kernels()
            assert got[1:3] == ref[1:3], mode
            for r, g in zip(ref[0] + ref[3], got[0] + got[3]):
                assert r.dtype == g.dtype
                np.testing.assert_array_equal(r, g)
            assert c.get("repro_pair_sweep_queries_total", 0) == 0, mode

    def test_overflowing_query_prunes_to_exact(self):
        columns, small = mixed_scale_corners()
        with pair_index_forced("auto"), counter_deltas() as c:
            corners, _, _ = pair_intersections(columns, small)
        assert corners.shape[0] == 600
        assert c["repro_pair_grid_queries_total"] == 1
        assert c["repro_pair_candidate_pairs_total"] == 600

    def test_zero_extent_boxes_terminate(self):
        # An open query gives a zero-extent box no cell along its flat
        # axes.  99 needles flat in x and y span only z, once each, so z
        # gets the highest span sum while the slab still overflows the
        # budget: coarsening must skip axes its cell already covers, or
        # it would double z forever.
        z = np.arange(99)
        needles = np.column_stack((0 * z, 0 * z, z, 0 * z, 0 * z, z + 1))
        corners = np.concatenate(
            ([[0, 0, 0, 4096, 4096, 1]], needles)
        ).astype(np.int64)
        _assert_pair_results_identical(corners, corners)


@pytest.mark.parametrize("ndim", [2, 3])
class TestHierarchyMetricsAgree:
    """End-to-end: whole simulator steps on random N-D hierarchies."""

    @pytest.mark.parametrize("name", registry("partitioner").names())
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_replay_matches_bruteforce_and_dense_oracles(self, name, ndim, data):
        """Every registered partitioner, replayed over random regrids.

        Each step's :class:`StepMetrics` must be identical under the
        default pair-index mode, the forced ``grid`` and ``sweep``
        indexes (probing each map's persistent index) and the
        ``bruteforce`` oracle; its cell counts must equal the dense
        oracle's on ``result.rasters()``.
        """
        side = data.draw(st.sampled_from([4, 8]))
        hierarchies = [
            data.draw(nested_hierarchies(ndim, side)) for _ in range(3)
        ]
        part = create("partitioner", name)
        sim = TraceSimulator()
        previous = prev_h = None
        for step, hierarchy in enumerate(hierarchies):
            result = part.partition(hierarchy, 3, previous)
            result.validate(hierarchy)
            args = (hierarchy, result, previous, prev_h, step)
            got = sim.measure_step(*args)
            with pair_index_forced("bruteforce"):
                assert sim.measure_step(*args) == got
            for mode in INDEXED_MODES:
                with pair_index_forced(mode):
                    assert sim.measure_step(*args) == got, mode
            assert (
                got.comm_cells, got.interlevel_cells, got.migration_cells
            ) == dense.step_cells(hierarchy, result, previous)
            previous, prev_h = result, hierarchy

    @pytest.mark.parametrize("name", registry("partitioner").names())
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_replay_matches_unmerged_maps(self, name, ndim, data):
        """Coalescing changes no step metric: replaying the same
        regrids on the partitioners' unmerged maps (``previous`` too)
        gives identical :class:`StepMetrics`."""
        side = data.draw(st.sampled_from([4, 8]))
        hierarchies = [
            data.draw(nested_hierarchies(ndim, side)) for _ in range(3)
        ]

        def replay() -> list:
            part = create("partitioner", name)
            sim = TraceSimulator()
            steps, previous, prev_h = [], None, None
            for step, hierarchy in enumerate(hierarchies):
                result = part.partition(hierarchy, 3, previous)
                steps.append(
                    sim.measure_step(hierarchy, result, previous, prev_h, step)
                )
                previous, prev_h = result, hierarchy
            return steps

        merged = replay()
        with mock.patch.object(OwnerMap, "coalesced", lambda self: self):
            unmerged = replay()
        assert merged == unmerged

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_loads_match_dense_bincount(self, ndim, data):
        hierarchy = data.draw(nested_hierarchies(ndim))
        for part in (DomainSfcPartitioner(unit_size=1), PatchBasedPartitioner()):
            res = part.partition(hierarchy, 4)
            np.testing.assert_array_equal(
                proc_loads(res, hierarchy),
                dense.proc_loads(res.rasters(), hierarchy, 4),
            )
