"""Tests for the paper's penalties: beta_m (section 4.4), beta_C, beta_L."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.geometry import Box
from repro.hierarchy import GridHierarchy, PatchLevel
from repro.model import (
    communication_penalty,
    dimension1,
    load_imbalance_penalty,
    migration_penalty,
)

from tests.strategies import disjoint_boxlists


def hierarchy_from_level1(boxes, domain_size=16) -> GridHierarchy:
    domain = Box((0, 0), (domain_size, domain_size))
    level1 = [
        b.intersect(domain.refine(2))
        for b in boxes
        if b.intersect(domain.refine(2)) is not None
    ]
    return GridHierarchy(
        domain,
        [PatchLevel(0, [domain], ratio=1), PatchLevel(1, level1, ratio=2)],
    )


def abutting_pair() -> GridHierarchy:
    """Two 8x8 level-1 patches sharing an 8-face edge, over a 16x16 base.

    Workload: 256 base cells + 2 * 128 level-1 cells (time weight 2) = 512.
    """
    return hierarchy_from_level1([Box((0, 0), (8, 8)), Box((8, 0), (16, 8))])


def hierarchy_3d() -> GridHierarchy:
    """One 4x4x8 level-1 box (ratio 2) in the corner of an 8^3 base."""
    domain = Box((0, 0, 0), (8, 8, 8))
    return GridHierarchy(domain, [
        PatchLevel(0, [domain], ratio=1),
        PatchLevel(1, [Box((0, 0, 0), (4, 4, 8))], ratio=2),
    ])


#: Hand-worked values are checked to float round-off, not to a tolerance.
EXACT = 1e-12


class TestMigrationPenalty:
    def test_identical_hierarchies_zero(self, simple_hierarchy):
        assert migration_penalty(simple_hierarchy, simple_hierarchy) == 0.0

    def test_disjoint_refinement_high(self):
        a = hierarchy_from_level1([Box((0, 0), (8, 8))])
        b = hierarchy_from_level1([Box((16, 16), (24, 24))])
        # Level 0 fully overlaps (256 cells); level 1 not at all.
        expected = 1.0 - 256 / (256 + 64)
        assert migration_penalty(a, b) == pytest.approx(expected)

    def test_hand_computed_partial_overlap(self, simple_hierarchy, shifted_hierarchy):
        # Level 0: full 256-cell overlap.  Level 1: 16x8 at (8,8) vs
        # (10,8): overlap 14x8 = 112.  Level 2: 8x8 at (20,18) vs (24,18):
        # overlap 4x8 = 32.
        overlap = 256 + 112 + 32
        expected = 1.0 - overlap / shifted_hierarchy.ncells
        assert migration_penalty(
            simple_hierarchy, shifted_hierarchy
        ) == pytest.approx(expected)

    def test_denominator_variants(self, simple_hierarchy):
        grown = hierarchy_from_level1([Box((0, 0), (32, 16))])
        small = hierarchy_from_level1([Box((0, 0), (8, 8))])
        cur = migration_penalty(small, grown, denominator="current")
        prev = migration_penalty(small, grown, denominator="previous")
        mx = migration_penalty(small, grown, denominator="max")
        for v in (cur, prev, mx):
            assert 0.0 <= v <= 1.0
        assert mx == pytest.approx(cur)  # grown is the max here

    @pytest.mark.parametrize(
        "grows, denominator, expected",
        [
            # small: 256 + 8x8 = 320 cells; grown: 256 + 32x16 = 768 cells.
            # Every cell of small lies inside grown: the overlap is 320.
            (True, "current", 1 - 320 / 768),
            (True, "previous", 0.0),  # growth alone moves nothing old
            (True, "max", 1 - 320 / 768),
            (False, "current", 0.0),  # shrinking only deletes
            (False, "previous", 1 - 320 / 768),
            (False, "max", 1 - 320 / 768),
        ],
    )
    def test_hand_worked_growth_and_shrink(self, grows, denominator, expected):
        small = hierarchy_from_level1([Box((0, 0), (8, 8))])
        grown = hierarchy_from_level1([Box((0, 0), (32, 16))])
        prev, cur = (small, grown) if grows else (grown, small)
        v = migration_penalty(prev, cur, denominator=denominator)
        assert v == pytest.approx(expected, abs=EXACT)  # 7/12 or 0

    def test_hand_worked_level_removed(self, simple_hierarchy):
        # Dropping level 2 keeps levels 0 and 1 in place: the overlap
        # 256 + 128 covers every cell of the two-level hierarchy.
        two_level = hierarchy_from_level1([Box((8, 8), (24, 16))])
        assert migration_penalty(simple_hierarchy, two_level) == 0.0

    def test_hand_worked_level_added(self, simple_hierarchy):
        # A new level has no predecessor to overlap: its 64 cells are
        # all new, over |H_t| = 256 + 128 + 64 = 448.
        two_level = hierarchy_from_level1([Box((8, 8), (24, 16))])
        assert migration_penalty(
            two_level, simple_hierarchy
        ) == pytest.approx(64 / 448, abs=EXACT)  # = 1/7

    def test_invalid_denominator(self, simple_hierarchy):
        with pytest.raises(ValueError, match="denominator"):
            migration_penalty(simple_hierarchy, simple_hierarchy, denominator="x")

    def test_growth_yields_larger_value_with_current(self):
        """Section 4.4: for |H_{t-1}| < |H_t| the |H_t| denominator is
        chosen "to yield a larger value when it is subtracted from 1" —
        a growing grid should predict *more* migration."""
        small = hierarchy_from_level1([Box((0, 0), (8, 8))])
        big = hierarchy_from_level1([Box((8, 8), (32, 32))])  # disjoint L1
        grow = migration_penalty(small, big, denominator="current")
        grow_prev = migration_penalty(small, big, denominator="previous")
        assert grow >= grow_prev - 1e-12

    @given(disjoint_boxlists(max_coord=31), disjoint_boxlists(max_coord=31))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, la, lb):
        a = hierarchy_from_level1(list(la))
        b = hierarchy_from_level1(list(lb))
        for denom in ("current", "previous", "max"):
            v = migration_penalty(a, b, denominator=denom)
            assert 0.0 <= v <= 1.0

    @given(disjoint_boxlists(max_coord=31))
    @settings(max_examples=40, deadline=None)
    def test_self_penalty_zero(self, lst):
        h = hierarchy_from_level1(list(lst))
        assert migration_penalty(h, h) == 0.0


class TestCommunicationPenalty:
    def test_range(self, simple_hierarchy):
        v = communication_penalty(simple_hierarchy, nprocs=8)
        assert 0.0 <= v <= 1.0

    def test_flat_hierarchy_small(self, flat_hierarchy):
        v = communication_penalty(flat_hierarchy, nprocs=4, fragmentation=0.0)
        # Only the base-grid hull: 4*16 faces / 256 cells.
        assert v == pytest.approx(64 / 256)

    def test_more_procs_more_penalty(self, simple_hierarchy):
        lo = communication_penalty(simple_hierarchy, nprocs=2)
        hi = communication_penalty(simple_hierarchy, nprocs=64)
        assert hi >= lo

    def test_fragmented_worse_than_compact(self):
        compact = hierarchy_from_level1([Box((0, 0), (16, 16))])
        pieces = [
            Box((2 * i, 2 * j), (2 * i + 2, 2 * j + 2))
            for i in range(0, 16, 4)
            for j in range(0, 16, 4)
        ]
        fragmented = hierarchy_from_level1(pieces)
        assert communication_penalty(
            fragmented, nprocs=4, fragmentation=0.0
        ) > communication_penalty(compact, nprocs=4, fragmentation=0.0)

    def test_hand_worked_two_level_hull(self, simple_hierarchy):
        # Hull faces times the time weight per level: 64*1 + 48*2 + 32*4 =
        # 288, over the workload 256*1 + 128*2 + 64*4 = 768.
        v = communication_penalty(simple_hierarchy, nprocs=16, fragmentation=0)
        assert v == pytest.approx(288 / 768, abs=EXACT)  # = 3/8

    @pytest.mark.parametrize(
        "params, expected",
        [
            # Base hull 64*1 plus two 8x8 patch hulls 2 * 32 * 2 = 128.
            ({"fragmentation": 0}, 192 / 512),
            # Cut term sqrt(P * A_l) per level, times its time weight:
            # sqrt(4 * 256) * 1 = 32 and sqrt(4 * 128) * 2 (~0.525888).
            (
                {"nprocs": 4, "fragmentation": 1},
                (192 + 32 + 2 * 512 ** 0.5) / 512,
            ),
        ],
    )
    def test_hand_worked_abutting_pair(self, params, expected):
        v = communication_penalty(abutting_pair(), **params)
        assert v == pytest.approx(expected, abs=EXACT)

    @pytest.mark.parametrize(
        "ghost_width, expected",
        # Every face moves ghost_width cells: 64 * g faces over 256 cells,
        # clamped to 1 once the potential exceeds the workload.
        [(0, 0.0), (1, 64 / 256), (2, 128 / 256), (5, 1.0)],
    )
    def test_hand_worked_ghost_width(self, flat_hierarchy, ghost_width, expected):
        v = communication_penalty(
            flat_hierarchy, nprocs=4, ghost_width=ghost_width, fragmentation=0
        )
        assert v == pytest.approx(expected, abs=EXACT)

    def test_hand_worked_l_shape(self):
        # Three 8x8 hulls of 32 faces each, time weight 2: the two 8-face
        # edge contacts count from both sides, as every hull face does.
        h = hierarchy_from_level1([
            Box((0, 0), (8, 8)), Box((8, 0), (16, 8)), Box((0, 8), (8, 16)),
        ])
        v = communication_penalty(h, fragmentation=0)
        assert v == pytest.approx((64 + 2 * 96) / 640, abs=EXACT)  # 0.4

    def test_hand_worked_ratio_four(self):
        # One level-1 patch of 16x16 fine cells at ratio 4 (time weight
        # 4): (64 + 64 * 4) faces over 256 + 256 * 4 = 1280.
        domain = Box((0, 0), (16, 16))
        h = GridHierarchy(domain, [
            PatchLevel(0, [domain], ratio=1),
            PatchLevel(1, [Box((0, 0), (16, 16))], ratio=4),
        ])
        v = communication_penalty(h, fragmentation=0)
        assert v == pytest.approx(320 / 1280, abs=EXACT)

    def test_hand_worked_3d(self):
        # Base hull 6 * 64 = 384 faces; the 4x4x8 level-1 box has
        # 2 * (16 + 32 + 32) = 160 faces at time weight 2.  Workload
        # 512 + 128 * 2 = 768.
        v = communication_penalty(hierarchy_3d(), fragmentation=0)
        assert v == pytest.approx((384 + 2 * 160) / 768, abs=EXACT)  # 11/12

    def test_invalid_params(self, simple_hierarchy):
        with pytest.raises(ValueError):
            communication_penalty(simple_hierarchy, ghost_width=-1)
        with pytest.raises(ValueError):
            communication_penalty(simple_hierarchy, nprocs=0)
        with pytest.raises(ValueError):
            communication_penalty(simple_hierarchy, fragmentation=-1.0)


class TestLoadImbalancePenalty:
    def test_uniform_refinement_zero(self):
        h = hierarchy_from_level1([Box((0, 0), (32, 32))])
        assert load_imbalance_penalty(h) == pytest.approx(0.0)

    def test_flat_hierarchy_zero(self, flat_hierarchy):
        assert load_imbalance_penalty(flat_hierarchy) == pytest.approx(0.0)

    def test_hand_worked_three_levels(self, simple_hierarchy):
        # Column work: 1 on each of the 256 base columns, +2*4 = 8 on the
        # 32 columns under level 1, and +4*(8, 16, 8) = 32/64/32 on the
        # 2x3 columns under level 2.  Max 1 + 8 + 64 = 73, mean 768/256.
        assert load_imbalance_penalty(simple_hierarchy) == pytest.approx(
            70 / 73, abs=EXACT
        )

    def test_hand_worked_abutting_pair(self):
        # 32 columns carry 1 + 8 = 9; the mean is 512 / 256 = 2.
        assert load_imbalance_penalty(abutting_pair()) == pytest.approx(
            7 / 9, abs=EXACT
        )

    def test_hand_worked_ratio_four(self):
        # Level 1 at ratio 4 covers the 4x4 base columns at the origin
        # with 16 fine cells each, time weight 4: those 16 columns carry
        # 1 + 64 = 65, and the mean is (256 + 256 * 4) / 256 = 5.
        domain = Box((0, 0), (16, 16))
        h = GridHierarchy(domain, [
            PatchLevel(0, [domain], ratio=1),
            PatchLevel(1, [Box((0, 0), (16, 16))], ratio=4),
        ])
        assert load_imbalance_penalty(h) == pytest.approx(12 / 13, abs=EXACT)

    def test_hand_worked_straddling_patch(self):
        # A 2x2 patch at (1,1) straddles four base columns, one fine cell
        # (time weight 2) in each: max 1 + 2 = 3, mean 264 / 256.
        h = hierarchy_from_level1([Box((1, 1), (3, 3))])
        assert load_imbalance_penalty(h) == pytest.approx(
            1 - (264 / 256) / 3, abs=EXACT
        )  # = 21/32

    def test_hand_worked_3d(self):
        # The 4x4x8 level-1 box covers 2x2x4 = 16 base cells with 8 fine
        # cells each at time weight 2: max 1 + 16 = 17, mean 768 / 512.
        assert load_imbalance_penalty(hierarchy_3d()) == pytest.approx(
            1 - 1.5 / 17, abs=EXACT
        )  # = 31/34

    def test_needle_high(self):
        domain = Box((0, 0), (16, 16))
        h = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((0, 0), (2, 2))], ratio=2),
                PatchLevel(2, [Box((0, 0), (4, 4))], ratio=2),
                PatchLevel(3, [Box((0, 0), (8, 8))], ratio=2),
            ],
        )
        assert load_imbalance_penalty(h) > 0.8

    def test_deeper_stack_raises_penalty(self):
        """Adding a deeper level on the same footprint concentrates the
        column workload further, raising beta_L (section 3.1's 'many
        levels of refinement' risk)."""
        domain = Box((0, 0), (16, 16))
        shallow = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((0, 0), (8, 8))], ratio=2),
            ],
        )
        deep = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((0, 0), (8, 8))], ratio=2),
                PatchLevel(2, [Box((0, 0), (8, 8))], ratio=2),
            ],
        )
        assert load_imbalance_penalty(deep) > load_imbalance_penalty(shallow)

    def test_broad_refinement_beats_narrow(self):
        """At a fixed depth, refining a larger fraction of the domain
        lowers the localization penalty."""
        narrow = hierarchy_from_level1([Box((0, 0), (8, 8))])
        broad = hierarchy_from_level1([Box((0, 0), (32, 16))])
        assert load_imbalance_penalty(broad) < load_imbalance_penalty(narrow)

    @given(disjoint_boxlists(max_coord=31))
    @settings(max_examples=40, deadline=None)
    def test_range_property(self, lst):
        h = hierarchy_from_level1(list(lst))
        assert 0.0 <= load_imbalance_penalty(h) <= 1.0


class TestDimension1:
    def test_scale_invariance(self):
        """'beta_L = beta_C = 0.1 yields the same result as 0.4' (§4.3)."""
        assert dimension1(0.1, 0.1) == dimension1(0.4, 0.4) == 0.5

    def test_extremes(self):
        assert dimension1(1.0, 0.0) == 1.0
        assert dimension1(0.0, 1.0) == 0.0

    def test_hand_worked_simple_hierarchy(self, simple_hierarchy):
        # beta_L = 70/73 and beta_C = 3/8 (the hand-worked values above):
        # (70/73) / (70/73 + 3/8) = 560 / (560 + 219).
        beta_l = load_imbalance_penalty(simple_hierarchy)
        beta_c = communication_penalty(
            simple_hierarchy, nprocs=16, fragmentation=0
        )
        assert dimension1(beta_l, beta_c) == pytest.approx(
            560 / 779, abs=EXACT
        )

    def test_zero_zero_neutral(self):
        assert dimension1(0.0, 0.0) == 0.5

    def test_range_validation(self):
        with pytest.raises(ValueError):
            dimension1(1.5, 0.5)
        with pytest.raises(ValueError):
            dimension1(0.5, -0.1)
