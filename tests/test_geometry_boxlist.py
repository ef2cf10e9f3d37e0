"""Tests for BoxList and the intersection-volume kernel behind beta_m."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.geometry import Box, BoxList, coalesce_boxes, intersection_volume

from tests.strategies import disjoint_boxlists


class TestIntersectionVolume:
    def test_identical_lists(self):
        boxes = [Box((0, 0), (4, 4)), Box((5, 5), (8, 8))]
        assert intersection_volume(boxes, boxes) == 16 + 9

    def test_disjoint_lists(self):
        assert intersection_volume([Box((0, 0), (2, 2))], [Box((4, 4), (6, 6))]) == 0

    def test_partial_overlap(self):
        a = [Box((0, 0), (4, 4))]
        b = [Box((2, 2), (6, 6))]
        assert intersection_volume(a, b) == 4

    def test_empty_inputs(self):
        assert intersection_volume([], [Box((0, 0), (1, 1))]) == 0
        assert intersection_volume([Box((0, 0), (1, 1))], []) == 0

    def test_cross_terms_sum(self):
        # Two disjoint pieces of A both overlapping one B box.
        a = [Box((0, 0), (2, 4)), Box((2, 0), (4, 4))]
        b = [Box((1, 1), (3, 3))]
        assert intersection_volume(a, b) == 4

    @given(disjoint_boxlists(), disjoint_boxlists())
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_union(self, la, lb):
        """For disjoint sets, sum_ij |a_i ∩ b_j| == |union(a) ∩ union(b)|."""
        expected = 0
        for a in la:
            for b in lb:
                expected += a.intersection_ncells(b)
        assert intersection_volume(la.boxes, lb.boxes) == expected

    @given(disjoint_boxlists())
    @settings(max_examples=60, deadline=None)
    def test_self_intersection_is_size(self, lst):
        assert intersection_volume(lst.boxes, lst.boxes) == lst.ncells


class TestCoalesce:
    def test_coalesce_merges_strips(self):
        strips = [Box((0, i), (4, i + 1)) for i in range(4)]
        merged = coalesce_boxes(strips)
        assert len(merged) == 1
        assert merged[0] == Box((0, 0), (4, 4))

    def test_coalesce_preserves_cells(self):
        boxes = [Box((0, 0), (2, 2)), Box((2, 0), (4, 2)), Box((0, 3), (1, 5))]
        merged = coalesce_boxes(boxes)
        assert sum(b.ncells for b in merged) == sum(b.ncells for b in boxes)
        assert len(merged) == 2


class TestBoxList:
    def test_filters_empty(self):
        lst = BoxList([Box((0, 0), (0, 4)), Box((0, 0), (2, 2))])
        assert len(lst) == 1

    def test_ncells_and_surface(self):
        lst = BoxList([Box((0, 0), (2, 2)), Box((4, 4), (6, 6))])
        assert lst.ncells == 8
        assert lst.surface_cells == 16

    def test_validate_disjoint_raises(self):
        lst = BoxList([Box((0, 0), (4, 4)), Box((2, 2), (6, 6))])
        with pytest.raises(ValueError, match="overlapping"):
            lst.validate_disjoint()

    def test_validate_disjoint_ok(self):
        BoxList([Box((0, 0), (2, 2)), Box((2, 0), (4, 2))]).validate_disjoint()

    def test_contains_point(self):
        lst = BoxList([Box((0, 0), (2, 2)), Box((4, 4), (6, 6))])
        assert lst.contains_point((5, 5))
        assert not lst.contains_point((3, 3))

    def test_refine_coarsen(self):
        lst = BoxList([Box((1, 1), (3, 3))])
        assert lst.refine(2).ncells == 16
        assert lst.coarsen(2).boxes[0] == Box((0, 0), (2, 2))

    def test_disjointified(self):
        lst = BoxList([Box((0, 0), (4, 4)), Box((2, 2), (6, 6))])
        dj = lst.disjointified()
        dj.validate_disjoint()
        assert dj.ncells == 28

    def test_json_roundtrip(self):
        lst = BoxList([Box((0, 0), (2, 2)), Box((4, 4), (6, 6))])
        assert BoxList.from_json(lst.to_json()) == lst

    def test_equality_and_hash(self):
        a = BoxList([Box((0, 0), (2, 2))])
        b = BoxList([Box((0, 0), (2, 2))])
        assert a == b
        assert hash(a) == hash(b)

    @given(disjoint_boxlists())
    @settings(max_examples=60, deadline=None)
    def test_disjointified_idempotent(self, lst):
        dj = lst.disjointified()
        assert dj.ncells == lst.ncells
        dj.validate_disjoint()

    @given(disjoint_boxlists())
    @settings(max_examples=60, deadline=None)
    def test_coalesced_preserves_cells(self, lst):
        co = lst.coalesced()
        assert co.ncells == lst.ncells
        co.validate_disjoint()
