"""Unit and property tests for the integer box calculus."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, bounding_box

from tests.strategies import boxes_2d


# ---------------------------------------------------------------------------
# Construction and basic queries
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_shape_and_ncells(self):
        b = Box((1, 2), (4, 7))
        assert b.shape == (3, 5)
        assert b.ncells == 15
        assert not b.empty

    def test_empty_box(self):
        b = Box((3, 3), (3, 8))
        assert b.empty
        assert b.ncells == 0

    def test_inverted_raises(self):
        with pytest.raises(ValueError, match="inverted"):
            Box((5, 0), (3, 2))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            Box((0, 0), (1, 1, 1))

    def test_zero_dim_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            Box((), ())

    def test_3d_box(self):
        b = Box((0, 0, 0), (2, 3, 4))
        assert b.ndim == 3
        assert b.ncells == 24

    def test_hashable_and_equal(self):
        assert Box((0, 0), (2, 2)) == Box((0, 0), (2, 2))
        assert hash(Box((0, 0), (2, 2))) == hash(Box((0, 0), (2, 2)))
        assert Box((0, 0), (2, 2)) != Box((0, 0), (2, 3))

    def test_surface_cells_square(self):
        assert Box((0, 0), (4, 4)).surface_cells == 16

    def test_surface_cells_3d(self):
        # 2*(3*4 + 2*4 + 2*3) = 52
        assert Box((0, 0, 0), (2, 3, 4)).surface_cells == 52

    def test_surface_cells_empty(self):
        assert Box((0, 0), (0, 5)).surface_cells == 0


class TestContainment:
    def test_contains_point(self):
        b = Box((1, 1), (4, 4))
        assert b.contains_point((1, 1))
        assert b.contains_point((3, 3))
        assert not b.contains_point((4, 4))  # half-open
        assert not b.contains_point((0, 2))

    def test_contains_point_dim_mismatch(self):
        with pytest.raises(ValueError):
            Box((0, 0), (2, 2)).contains_point((1,))

    def test_contains_box(self):
        outer = Box((0, 0), (10, 10))
        assert outer.contains_box(Box((2, 2), (5, 5)))
        assert outer.contains_box(outer)
        assert not outer.contains_box(Box((5, 5), (11, 8)))

    def test_empty_contained_everywhere(self):
        assert Box((3, 3), (4, 4)).contains_box(Box((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# Intersection / subtraction
# ---------------------------------------------------------------------------
class TestIntersection:
    def test_basic(self):
        a = Box((0, 0), (4, 4))
        b = Box((2, 2), (6, 6))
        assert a.intersect(b) == Box((2, 2), (4, 4))
        assert a.intersection_ncells(b) == 4

    def test_disjoint(self):
        a = Box((0, 0), (2, 2))
        b = Box((2, 0), (4, 2))  # abutting, half-open => disjoint
        assert a.intersect(b) is None
        assert not a.intersects(b)
        assert a.intersection_ncells(b) == 0

    def test_self_intersection(self):
        a = Box((1, 1), (5, 5))
        assert a.intersect(a) == a

    @given(boxes_2d(), boxes_2d())
    def test_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)
        assert a.intersection_ncells(b) == b.intersection_ncells(a)

    @given(boxes_2d(), boxes_2d())
    def test_intersection_contained(self, a, b):
        c = a.intersect(b)
        if c is not None:
            assert a.contains_box(c)
            assert b.contains_box(c)
            assert c.ncells == a.intersection_ncells(b)


class TestSubtraction:
    def test_hole_in_middle(self):
        outer = Box((0, 0), (6, 6))
        hole = Box((2, 2), (4, 4))
        pieces = outer.subtract(hole)
        assert sum(p.ncells for p in pieces) == 36 - 4
        for p in pieces:
            assert not p.intersects(hole)

    def test_disjoint_returns_self(self):
        a = Box((0, 0), (2, 2))
        assert a.subtract(Box((5, 5), (6, 6))) == [a]

    def test_full_cover_returns_empty(self):
        a = Box((1, 1), (3, 3))
        assert a.subtract(Box((0, 0), (5, 5))) == []

    @given(boxes_2d(), boxes_2d())
    @settings(max_examples=200)
    def test_subtract_partition_property(self, a, b):
        """a = (a \\ b) + (a ∩ b), all pieces disjoint."""
        pieces = a.subtract(b)
        inter = a.intersect(b)
        total = sum(p.ncells for p in pieces) + (inter.ncells if inter else 0)
        assert total == a.ncells
        for i, p in enumerate(pieces):
            assert a.contains_box(p)
            assert not p.intersects(b)
            for q in pieces[i + 1 :]:
                assert not p.intersects(q)


# ---------------------------------------------------------------------------
# Refinement maps
# ---------------------------------------------------------------------------
class TestRefineCoarsen:
    def test_refine(self):
        assert Box((1, 2), (3, 4)).refine(2) == Box((2, 4), (6, 8))

    def test_coarsen_rounds_outward(self):
        assert Box((1, 3), (5, 6)).coarsen(2) == Box((0, 1), (3, 3))

    def test_refine_invalid_ratio(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1, 1)).refine(0)

    @given(boxes_2d(), st.integers(min_value=1, max_value=4))
    def test_coarsen_refine_covers(self, b, r):
        assert b.coarsen(r).refine(r).contains_box(b)

    @given(boxes_2d(), st.integers(min_value=1, max_value=4))
    def test_refine_coarsen_identity(self, b, r):
        assert b.refine(r).coarsen(r) == b

    @given(boxes_2d(), st.integers(min_value=1, max_value=4))
    def test_refine_scales_cells(self, b, r):
        assert b.refine(r).ncells == b.ncells * r * r


class TestGrowShiftSplit:
    def test_grow(self):
        assert Box((2, 2), (4, 4)).grow(1) == Box((1, 1), (5, 5))

    def test_grow_anisotropic(self):
        assert Box((2, 2), (4, 4)).grow((1, 0)) == Box((1, 2), (5, 4))

    def test_shrink_inverted_raises(self):
        with pytest.raises(ValueError, match="inverted"):
            Box((0, 0), (2, 2)).grow(-2)

    def test_shift(self):
        assert Box((0, 0), (2, 2)).shift((3, -1)) == Box((3, -1), (5, 1))

    def test_split(self):
        lo, hi = Box((0, 0), (4, 4)).split(0, 1)
        assert lo == Box((0, 0), (1, 4))
        assert hi == Box((1, 0), (4, 4))

    def test_split_at_edge_gives_empty(self):
        lo, hi = Box((0, 0), (4, 4)).split(1, 0)
        assert lo.empty
        assert hi == Box((0, 0), (4, 4))

    def test_split_out_of_range(self):
        with pytest.raises(ValueError):
            Box((0, 0), (4, 4)).split(0, 5)
        with pytest.raises(ValueError):
            Box((0, 0), (4, 4)).split(2, 1)


class TestMergeCoalesce:
    def test_merge_bounding(self):
        a = Box((0, 0), (2, 2))
        b = Box((4, 4), (6, 6))
        assert a.merge_bounding(b) == Box((0, 0), (6, 6))

    def test_can_coalesce_abutting(self):
        assert Box((0, 0), (2, 2)).can_coalesce(Box((2, 0), (4, 2)))
        assert not Box((0, 0), (2, 2)).can_coalesce(Box((2, 1), (4, 3)))

    def test_can_coalesce_identical(self):
        b = Box((0, 0), (2, 2))
        assert b.can_coalesce(b)

    def test_bounding_box_helper(self):
        bb = bounding_box([Box((0, 0), (1, 1)), Box((3, 2), (5, 4))])
        assert bb == Box((0, 0), (5, 4))

    def test_bounding_box_empty_input(self):
        assert bounding_box([]) is None
        assert bounding_box([Box((1, 1), (1, 1))]) is None


class TestSerialization:
    @given(boxes_2d(allow_empty=True))
    def test_json_roundtrip(self, b):
        assert Box.from_json(b.to_json()) == b
