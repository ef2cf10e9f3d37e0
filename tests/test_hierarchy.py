"""Tests for PatchLevel and GridHierarchy invariants."""

from __future__ import annotations

import pytest

from repro.geometry import Box
from repro.hierarchy import GridHierarchy, PatchLevel


class TestPatchLevel:
    def test_counts_and_workload(self):
        level = PatchLevel(2, [Box((0, 0), (4, 4)), Box((8, 8), (10, 10))])
        assert level.ncells == 20
        assert level.npatches == 2
        assert level.time_refinement_weight() == 4
        assert level.workload == 80

    def test_base_level_weight(self):
        assert PatchLevel(0, [Box((0, 0), (4, 4))], ratio=1).workload == 16

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            PatchLevel(-1, [])

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            PatchLevel(0, [], ratio=0)

    def test_validate_overlap(self):
        level = PatchLevel(1, [Box((0, 0), (4, 4)), Box((2, 2), (6, 6))])
        with pytest.raises(ValueError):
            level.validate()

    def test_equality_order_insensitive(self):
        a = PatchLevel(1, [Box((0, 0), (2, 2)), Box((4, 4), (6, 6))])
        b = PatchLevel(1, [Box((4, 4), (6, 6)), Box((0, 0), (2, 2))])
        assert a == b

    def test_json_roundtrip(self):
        level = PatchLevel(1, [Box((0, 0), (2, 2))], ratio=2)
        back = PatchLevel.from_json(level.to_json())
        assert back == level
        assert back.ratio == 2


class TestGridHierarchy:
    def test_sizes(self, simple_hierarchy):
        assert simple_hierarchy.nlevels == 3
        assert simple_hierarchy.ncells == 256 + 128 + 64
        # workload = 256*1 + 128*2 + 64*4
        assert simple_hierarchy.workload == 256 + 256 + 256
        assert simple_hierarchy.npatches == 3

    def test_level_domains(self, simple_hierarchy):
        assert simple_hierarchy.level_domain(0) == Box((0, 0), (16, 16))
        assert simple_hierarchy.level_domain(2) == Box((0, 0), (64, 64))
        assert simple_hierarchy.cumulative_ratio(2) == 4

    def test_cumulative_ratio_out_of_range(self, simple_hierarchy):
        with pytest.raises(ValueError):
            simple_hierarchy.cumulative_ratio(3)

    def test_validate_ok(self, simple_hierarchy):
        simple_hierarchy.validate()

    def test_validate_detects_bad_nesting(self):
        domain = Box((0, 0), (8, 8))
        bad = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((0, 0), (4, 4))], ratio=2),
                # Level 2 escapes level 1's footprint (level-1 covers
                # [0,8)^2 of the level-2 space).
                PatchLevel(2, [Box((12, 12), (16, 16))], ratio=2),
            ],
        )
        with pytest.raises(ValueError, match="not nested"):
            bad.validate()

    def test_validate_detects_incomplete_base(self):
        domain = Box((0, 0), (8, 8))
        with pytest.raises(ValueError, match="base level"):
            GridHierarchy(
                domain, [PatchLevel(0, [Box((0, 0), (4, 8))], ratio=1)]
            ).validate()

    def test_validate_detects_escaping_patch(self):
        domain = Box((0, 0), (8, 8))
        bad = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((10, 10), (20, 20))], ratio=2),
            ],
        )
        with pytest.raises(ValueError, match="outside level domain"):
            bad.validate()

    def test_noncontiguous_levels_rejected(self):
        domain = Box((0, 0), (8, 8))
        with pytest.raises(ValueError, match="contiguous"):
            GridHierarchy(
                domain,
                [PatchLevel(0, [domain], ratio=1), PatchLevel(2, [], ratio=2)],
            )

    def test_domain_must_be_anchored(self):
        with pytest.raises(ValueError, match="origin"):
            GridHierarchy(
                Box((1, 0), (9, 8)), [PatchLevel(0, [Box((1, 0), (9, 8))], ratio=1)]
            )

    def test_base_only(self, flat_hierarchy):
        assert flat_hierarchy.nlevels == 1
        assert flat_hierarchy.ncells == 256
        flat_hierarchy.validate()

    def test_refined_mask_on_base(self, simple_hierarchy):
        mask = simple_hierarchy.refined_mask_on_base()
        assert mask.shape == (16, 16)
        assert mask.sum() == 32  # the 16x8 level-1 patch coarsened by 2 -> 8x4

    def test_refined_mask_flat(self, flat_hierarchy):
        assert not flat_hierarchy.refined_mask_on_base().any()

    def test_json_roundtrip(self, simple_hierarchy):
        back = GridHierarchy.from_json(simple_hierarchy.to_json())
        assert back == simple_hierarchy

    def test_equality(self, simple_hierarchy, shifted_hierarchy):
        assert simple_hierarchy != shifted_hierarchy
        assert simple_hierarchy == GridHierarchy.from_json(
            simple_hierarchy.to_json()
        )

    def test_nesting_buffer_strictness(self):
        """With a positive buffer the fine level must stay away from the
        parent boundary; a patch flush against it fails."""
        domain = Box((0, 0), (8, 8))
        h = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((0, 0), (8, 8))], ratio=2),
                PatchLevel(2, [Box((0, 0), (4, 4))], ratio=2),
            ],
        )
        h.validate(nesting_buffer=0)
        # Level-2 patch [0,4)^2 sits at the corner of level-1 [0,8)^2 (in
        # the coarse frame [0,2)^2 inside [0,4)^2): still properly nested
        # even with a buffer because level-1 touches the domain boundary,
        # where the buffer is clipped.
        h.validate(nesting_buffer=1)
