"""Property tests: sparse owner-map calculus == dense raster reductions.

The sparse :class:`~repro.geometry.OwnerMap` path is the production
representation; the dense reductions of :mod:`tests.dense_oracle` are
its oracle.  These tests drive both against each other on random N-D
inputs (random owner rasters, random disjoint box assignments, and
random properly-nested hierarchies built from the shared ``boxes_nd``
strategies) and assert exact agreement, plus the representation laws
the refactor ships under: ``from_raster(rasterize(m)) == m`` and
semantic (decomposition-independent) equality.  Coalesced maps are
checked against the unmerged maps they came from.  The differential
tests of the fast paths against their oracles live in
``tests/test_oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, NO_OWNER, OwnerMap
from repro.partition import (
    DomainSfcPartitioner,
    PartitionResult,
    PatchBasedPartitioner,
    proc_loads,
)
from repro.simulator import (
    ghost_exchange_cells,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
)

from tests import dense_oracle as dense
from tests.strategies import disjoint_boxlists, nested_hierarchies


def owner_rasters(ndim: int, side: int, nprocs: int = 4):
    """Random dense owner rasters with unrefined holes."""

    def build(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        raster = rng.integers(0, nprocs, size=(side,) * ndim).astype(np.int32)
        raster[rng.random((side,) * ndim) < 0.3] = NO_OWNER
        return raster

    return st.builds(build, st.integers(0, 2**31 - 1))


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
            m.rasterize(), dense.rasterize_owners(assignments, domain)
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

    def test_partition_results_hold_merged_maps(self):
        raster = np.full((6, 6), NO_OWNER, dtype=np.int32)
        raster[:4, :3] = 1
        raster[:4, 3:] = 2
        owned = raster >= 0
        units = unit_cells(np.argwhere(owned), raster[owned], (6, 6))
        (held,) = PartitionResult((units,), nprocs=3).maps
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
        prev = PartitionResult(
            tuple(map(OwnerMap.from_raster, prev_rasters)), nprocs=4
        )
        cur = PartitionResult(
            tuple(map(OwnerMap.from_raster, cur_rasters)), nprocs=4
        )
        assert migration_cells(prev, cur) == dense.migration_cells(
            prev_rasters, cur_rasters
        )


@pytest.mark.parametrize("ndim", [2, 3])
class TestHierarchyMetricsAgree:
    """End-to-end: partitioner loads on random N-D hierarchies."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_loads_match_dense_bincount(self, ndim, data):
        hierarchy = data.draw(nested_hierarchies(ndim))
        for part in (DomainSfcPartitioner(unit_size=1), PatchBasedPartitioner()):
            res = part.partition(hierarchy, 4)
            np.testing.assert_array_equal(
                proc_loads(res, hierarchy),
                dense.proc_loads(dense.rasters(res), hierarchy, 4),
            )
