"""Tests for rasterization (masks, owner maps) and cells -> boxes recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    NO_OWNER,
    Box,
    OwnerMap,
    block_overlaps,
    box_corners,
    cell_boxes,
    paint_box,
    rasterize_mask,
)

from tests.dense_oracle import block_sum, rasterize_owners, upsample
from tests.strategies import disjoint_boxlists


class TestPaintBox:
    def test_paint_inside(self):
        arr = np.zeros((4, 4), dtype=np.int32)
        paint_box(arr, Box((1, 1), (3, 3)), 7)
        assert arr.sum() == 7 * 4

    def test_paint_clips_outside(self):
        arr = np.zeros((4, 4), dtype=np.int32)
        paint_box(arr, Box((2, 2), (8, 8)), 1)
        assert arr.sum() == 4  # only the 2x2 corner inside

    def test_paint_fully_outside_noop(self):
        arr = np.zeros((4, 4), dtype=np.int32)
        paint_box(arr, Box((10, 10), (12, 12)), 1)
        assert arr.sum() == 0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            paint_box(np.zeros((4, 4)), Box((0, 0, 0), (1, 1, 1)), 1)


class TestRasterizeMask:
    def test_counts_match(self):
        domain = Box((0, 0), (8, 8))
        mask = rasterize_mask([Box((0, 0), (2, 2)), Box((4, 4), (6, 6))], domain)
        assert mask.sum() == 8
        assert mask.dtype == bool

    def test_anchoring_enforced(self):
        with pytest.raises(ValueError, match="origin"):
            rasterize_mask([], Box((1, 0), (4, 4)))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            rasterize_mask([], Box((0, 0), (0, 4)))


class TestBlockOverlaps:
    def test_hand_worked_1d(self):
        """``[1, 7)`` over blocks of 3 covers 2, 3, 1 and 0 cells."""
        got = block_overlaps((4,), np.array([[1, 7]]), 3, 2.0)
        np.testing.assert_array_equal(got, [4.0, 6.0, 2.0, 0.0])

    def test_per_row_factors_and_weights(self):
        """Each row in its own index space: ``[0, 4)`` at factor 2 and
        ``[1, 2)`` at factor 1, on a 2-block grid."""
        corners = np.array([[0, 4], [1, 2]])
        got = block_overlaps((2,), corners, np.array([2, 1]), [1.0, 8.0])
        np.testing.assert_array_equal(got, [2.0, 10.0])

    def test_migration_from_add_box_overlap(self):
        """The README's replacement of a single-box accumulation."""
        a = np.ones((2, 3))
        box = Box((1, -1), (5, 4))
        a += block_overlaps(a.shape, box_corners([box], a.ndim), 2, 0.5)
        np.testing.assert_array_equal(a, [[2.0, 2.0, 1.0], [3.0, 3.0, 1.0]])

    @pytest.mark.parametrize(
        "corners", [np.empty((0, 4)), np.array([[-3, 0, 0, 2], [4, 9, 6, 12]])]
    )
    def test_nothing_inside_gives_positive_zeros(self, corners):
        got = block_overlaps((2, 3), corners, 2, 3.0)
        assert got.shape == (2, 3) and got.dtype == np.float64
        assert got.tobytes() == np.zeros((2, 3)).tobytes()

    @pytest.mark.parametrize("factor", [0, -1, np.array([2, 0])])
    def test_factor_below_one_rejected(self, factor):
        corners = np.array([[0, 0, 1, 1], [1, 1, 2, 2]])
        with pytest.raises(ValueError, match="factor must be >= 1"):
            block_overlaps((2, 2), corners, factor)

    @pytest.mark.parametrize(
        "corners", [np.zeros((1, 3), int), np.zeros((1, 6), int), np.zeros(4, int)]
    )
    def test_corner_width_must_match_shape(self, corners):
        with pytest.raises(ValueError, match="width 4"):
            block_overlaps((2, 2), corners)


class TestRasterizeOwners:
    def test_no_owner_default(self):
        domain = Box((0, 0), (4, 4))
        owners = rasterize_owners([], domain)
        assert (owners == NO_OWNER).all()
        assert owners.dtype == np.int32

    def test_assignment(self):
        domain = Box((0, 0), (4, 4))
        owners = rasterize_owners(
            [(Box((0, 0), (2, 4)), 0), (Box((2, 0), (4, 4)), 1)], domain
        )
        assert (owners[:2] == 0).all()
        assert (owners[2:] == 1).all()

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            rasterize_owners([(Box((0, 0), (1, 1)), -2)], Box((0, 0), (4, 4)))


class TestUpsampleBlockSum:
    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4)])
    def test_upsample_matches_repeat(self, shape):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 100, size=shape)
        expected = a
        for axis in range(a.ndim):
            expected = np.repeat(expected, 3, axis=axis)
        np.testing.assert_array_equal(upsample(a, 3), expected)

    def test_upsample_identity(self):
        a = np.arange(6).reshape(2, 3)
        assert upsample(a, 1) is a

    def test_upsample_validation(self):
        with pytest.raises(ValueError):
            upsample(np.zeros((2, 2)), 0)

    @pytest.mark.parametrize("shape", [(6,), (4, 6), (4, 2, 6)])
    def test_block_sum_inverts_upsample(self, shape):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 50, size=shape)
        out = block_sum(upsample(a, 2), 2, dtype=np.int64)
        np.testing.assert_array_equal(out, a * 2**a.ndim)

    def test_block_sum_validation(self):
        with pytest.raises(ValueError):
            block_sum(np.zeros((5, 5)), 2)
        with pytest.raises(ValueError):
            block_sum(np.zeros((4, 4)), 0)


def _boxes(corners: np.ndarray) -> list[Box]:
    ndim = corners.shape[1] // 2
    return [Box(tuple(row[:ndim]), tuple(row[ndim:])) for row in corners]


def mask_boxes(mask: np.ndarray) -> list[Box]:
    """:func:`cell_boxes` of a boolean mask's cells, all of one label."""
    cells = np.argwhere(mask)
    corners, labels = cell_boxes(cells, np.zeros(len(cells), dtype=np.int32))
    assert corners.dtype == np.int64 and (labels == 0).all()
    return _boxes(corners)


class TestBoxesFromMask:
    """:func:`cell_boxes` over the cells of one mask."""

    def test_single_block(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:5, 3:6] = True
        boxes = mask_boxes(mask)
        assert len(boxes) == 1
        assert boxes[0] == Box((2, 3), (5, 6))

    def test_two_components(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:2] = True
        mask[5:8, 5:8] = True
        boxes = mask_boxes(mask)
        assert sum(b.ncells for b in boxes) == 13

    def test_l_shape_exact(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0:4, 0:2] = True
        mask[0:2, 2:5] = True
        boxes = mask_boxes(mask)
        recon = rasterize_mask(boxes, Box((0, 0), (6, 6)))
        assert (recon == mask).all()

    def test_empty_mask(self):
        assert mask_boxes(np.zeros((4, 4), dtype=bool)) == []

    def test_1d_runs(self):
        mask = np.array([0, 1, 1, 0, 1, 0, 1, 1], dtype=bool)
        boxes = mask_boxes(mask)
        assert boxes == [Box((1,), (3,)), Box((4,), (5,)), Box((6,), (8,))]

    def test_3d_block(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[1:4, 2:5, 0:3] = True
        boxes = mask_boxes(mask)
        assert boxes == [Box((1, 2, 0), (4, 5, 3))]

    def test_deterministic_order(self):
        """Repeated decompositions of the same mask are identical lists."""
        rng = np.random.default_rng(7)
        mask = rng.random((12, 12)) > 0.55
        first = mask_boxes(mask)
        for _ in range(3):
            assert mask_boxes(mask.copy()) == first

    @given(disjoint_boxlists())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, lst):
        """mask -> boxes -> mask is the identity."""
        domain = Box((0, 0), (24, 24))
        mask = rasterize_mask(lst, domain)
        boxes = mask_boxes(mask)
        recon = rasterize_mask(boxes, domain)
        assert (recon == mask).all()
        # Result must be disjoint.
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)

    @given(disjoint_boxlists(max_boxes=4, max_coord=10, ndim=3))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property_3d(self, lst):
        """3-D mask -> boxes -> mask is the identity and disjoint."""
        domain = Box((0, 0, 0), (10, 10, 10))
        mask = rasterize_mask(lst, domain)
        boxes = mask_boxes(mask)
        recon = rasterize_mask(boxes, domain)
        assert (recon == mask).all()
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)


@st.composite
def label_rasters(draw, max_extent: int = 7):
    """A 1-3-D integer raster: a few labelled boxes painted over each
    other on a ``NO_OWNER`` background."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    raster = np.full(shape, NO_OWNER, dtype=np.int32)
    for _ in range(draw(st.integers(0, 6))):
        lo = [int(rng.integers(0, s)) for s in shape]
        hi = [int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, shape)]
        paint_box(raster, Box(tuple(lo), tuple(hi)), int(rng.integers(0, 3)))
    return raster


def _labelled_boxes(raster: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    owned = raster != NO_OWNER
    return cell_boxes(np.argwhere(owned), raster[owned])


class TestCellBoxesLabelled:
    """:func:`cell_boxes` over cells of several labels."""

    @given(label_rasters())
    @settings(max_examples=150, deadline=None)
    def test_one_label_per_box_disjoint_exact_union(self, raster):
        corners, labels = _labelled_boxes(raster)
        assert corners.shape == (labels.size, 2 * raster.ndim)
        cover = np.zeros(raster.shape, dtype=np.int64)
        for box, label in zip(_boxes(corners), labels):
            index = tuple(slice(l, h) for l, h in zip(box.lo, box.hi))
            assert (raster[index] == label).all()
            cover[index] += 1
        assert cover.max(initial=0) <= 1
        np.testing.assert_array_equal(cover == 1, raster != NO_OWNER)

    @given(label_rasters(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cell_order_does_not_matter(self, raster, seed):
        owned = raster != NO_OWNER
        cells, values = np.argwhere(owned), raster[owned]
        shuffle = np.random.default_rng(seed).permutation(len(cells))
        rows = [
            {tuple(c) + (int(v),) for c, v in zip(*cell_boxes(cells, values))},
            {
                tuple(c) + (int(v),)
                for c, v in zip(*cell_boxes(cells[shuffle], values[shuffle]))
            },
        ]
        assert rows[0] == rows[1]

    def test_labels_split_runs_and_slabs(self):
        raster = np.array(
            [[0, 0, 1, 1], [0, 0, 1, 2], [2, NO_OWNER, 2, 2]], dtype=np.int32
        )
        corners, labels = _labelled_boxes(raster)
        # Runs along the last axis first, then same-label runs of equal
        # extent stack along axis 0.
        assert {
            tuple(int(x) for x in c) + (int(v),) for c, v in zip(corners, labels)
        } == {
            (0, 0, 2, 2, 0),
            (0, 2, 1, 4, 1),
            (1, 2, 2, 3, 1),
            (1, 3, 2, 4, 2),
            (2, 0, 3, 1, 2),
            (2, 2, 3, 4, 2),
        }

    def test_empty_and_shape_checks(self):
        corners, labels = cell_boxes(
            np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int32)
        )
        assert corners.shape == (0, 6) and labels.shape == (0,)
        with pytest.raises(ValueError, match="labels"):
            cell_boxes(np.zeros((2, 2), dtype=np.int64), np.zeros(3))
        with pytest.raises(ValueError, match="coords"):
            cell_boxes(np.zeros(4, dtype=np.int64), np.zeros(4))

    def test_from_raster_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            OwnerMap.from_raster(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="integer"):
            OwnerMap.from_raster(np.zeros((3, 3), dtype=bool))
