"""Property tests: sparse owner-map calculus == dense raster reductions.

The sparse :class:`~repro.geometry.OwnerMap` path is the production
representation; the dense rasters are kept as the cross-check.  These
tests drive both against each other on random N-D inputs (random owner
rasters, random disjoint box assignments, and random properly-nested
hierarchies built from the shared ``boxes_nd`` strategies) and assert
exact agreement, plus the representation laws the refactor ships under:
``from_raster(rasterize(m)) == m`` and semantic (decomposition-
independent) equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Box,
    BoxList,
    NO_OWNER,
    OwnerMap,
    face_contacts,
    overlap_volume,
    pair_index_forced,
    pair_intersections,
    rasterize_owners,
)
from repro.hierarchy import GridHierarchy, PatchLevel
from repro.partition import (
    DomainSfcPartitioner,
    NaturePlusFable,
    PartitionResult,
    PatchBasedPartitioner,
    StickyRepartitioner,
    proc_loads,
)
from repro.simulator import (
    TraceSimulator,
    ghost_exchange_cells,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
    migration_cells_dense,
    per_rank_comm_cells,
)
from repro.telemetry import counter_deltas

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
def nested_hierarchies(draw, ndim: int = 2):
    """Random properly-nested factor-2 hierarchies."""
    side = draw(st.sampled_from([4, 8]))
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


@pytest.mark.parametrize("ndim,side", [(2, 8), (3, 5)])
class TestMetricsAgree:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ghost_metrics(self, ndim, side, data):
        raster = data.draw(owner_rasters(ndim, side))
        m = OwnerMap.from_raster(raster)
        assert ghost_exchange_cells(m, 2) == ghost_exchange_cells(raster, 2)
        assert ghost_message_pairs(m) == ghost_message_pairs(raster)
        np.testing.assert_array_equal(
            per_rank_comm_cells(m, 4), per_rank_comm_cells(raster, 4)
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_interlevel(self, ndim, side, data):
        coarse = data.draw(owner_rasters(ndim, side))
        fine = data.draw(owner_rasters(ndim, side * 2))
        assert interlevel_transfer_cells(
            OwnerMap.from_raster(coarse), OwnerMap.from_raster(fine), 2
        ) == interlevel_transfer_cells(coarse, fine, 2)

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
        assert migration_cells(prev, cur) == migration_cells_dense(
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
        # Adversarial: extreme aspect ratios spanning many buckets (the
        # sweep-fallback trigger), crossing an orthogonal family.
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


PARTITIONERS = [
    DomainSfcPartitioner(unit_size=1),
    PatchBasedPartitioner(),
    NaturePlusFable(),
    StickyRepartitioner(DomainSfcPartitioner(unit_size=1)),
]


@pytest.mark.parametrize("ndim", [2, 3])
class TestHierarchyMetricsAgree:
    """End-to-end: every simulator metric, sparse vs dense, on random
    N-D hierarchies under every partitioner family (the simulator's
    ``cross_check`` mode recomputes each step on rasters and asserts)."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_measure_step_cross_checks(self, ndim, data):
        hierarchy = data.draw(nested_hierarchies(ndim))
        prev_h = data.draw(nested_hierarchies(ndim))
        if prev_h.domain != hierarchy.domain:
            prev_h = hierarchy
        sim = TraceSimulator(cross_check=True)
        for part in PARTITIONERS:
            previous = part.partition(prev_h, 3)
            result = part.partition(hierarchy, 3, previous)
            result.validate(hierarchy)
            sim.measure_step(hierarchy, result, previous, prev_h)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_loads_match_dense_bincount(self, ndim, data):
        hierarchy = data.draw(nested_hierarchies(ndim))
        for part in PARTITIONERS[:2]:
            res = part.partition(hierarchy, 4)
            loads = proc_loads(res, hierarchy)
            dense = np.zeros(4, dtype=np.float64)
            for level, raster in zip(hierarchy, res.rasters()):
                owned = raster[raster != NO_OWNER]
                if owned.size:
                    dense += np.bincount(owned, minlength=4) * float(
                        level.time_refinement_weight()
                    )
            np.testing.assert_array_equal(loads, dense)
