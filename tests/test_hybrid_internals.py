"""White-box tests of Nature+Fable's internal stages."""

from __future__ import annotations

import numpy as np

from repro.geometry import NO_OWNER, Box
from repro.hierarchy import GridHierarchy, PatchLevel
from repro.partition import NatureFableParams, NaturePlusFable
from repro.partition.hybrid import _assign_sequence

from tests.dense_oracle import rasters


def two_core_hierarchy() -> GridHierarchy:
    """Two well-separated refined islands -> two Cores plus a Hue."""
    domain = Box((0, 0), (32, 32))
    return GridHierarchy(
        domain,
        [
            PatchLevel(0, [domain], ratio=1),
            PatchLevel(
                1,
                [Box((2, 2), (14, 14)), Box((40, 40), (60, 60))],
                ratio=2,
            ),
        ],
    )


class TestAssignSequence:
    def test_single_rank(self):
        out = _assign_sequence(np.ones(5), np.array([3]), q=1)
        assert (out == 3).all()

    def test_contiguous_chains_q1(self):
        out = _assign_sequence(np.ones(8), np.array([0, 1]), q=1)
        assert out.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_rank_offsets_respected(self):
        out = _assign_sequence(np.ones(4), np.array([5, 6]), q=1)
        assert set(out.tolist()) == {5, 6}

    def test_q2_still_covers_all_elements(self):
        out = _assign_sequence(np.ones(12), np.array([0, 1, 2]), q=2)
        assert out.size == 12
        assert set(out.tolist()) <= {0, 1, 2}

    def test_q2_balances_loads(self):
        rng = np.random.default_rng(4)
        weights = rng.random(60)
        ranks = np.array([0, 1, 2, 3])
        out1 = _assign_sequence(weights, ranks, q=1)
        out4 = _assign_sequence(weights, ranks, q=4)

        def bottleneck(assign):
            return max(weights[assign == r].sum() for r in ranks)

        assert bottleneck(out4) <= bottleneck(out1) + 1e-9

    def test_q2_fragments_more(self):
        weights = np.ones(32)
        ranks = np.array([0, 1, 2, 3])
        def cuts(assign):
            return int((np.diff(assign) != 0).sum())
        assert cuts(_assign_sequence(weights, ranks, q=4)) >= cuts(
            _assign_sequence(weights, ranks, q=1)
        )


class TestHueCore:
    def test_two_cores_get_disjoint_rank_groups(self):
        h = two_core_hierarchy()
        res = NaturePlusFable().partition(h, 8)
        res.validate(h)
        # Owners of the two refined islands must not overlap (separate
        # meta-partitions on contiguous rank ranges).
        fine = rasters(res)[1]
        left = set(np.unique(fine[2:14, 2:14]).tolist()) - {NO_OWNER}
        right = set(np.unique(fine[40:60, 40:60]).tolist()) - {NO_OWNER}
        assert left and right
        assert left.isdisjoint(right)

    def test_hue_cells_owned(self):
        h = two_core_hierarchy()
        res = NaturePlusFable().partition(h, 8)
        base = rasters(res)[0]
        refined = h.refined_mask_on_base()
        hue_owners = base[~refined]
        assert (hue_owners != NO_OWNER).all()

    def test_heavier_core_gets_more_ranks(self):
        h = two_core_hierarchy()  # right island is much bigger
        res = NaturePlusFable().partition(h, 8)
        fine = rasters(res)[1]
        left = set(np.unique(fine[2:14, 2:14]).tolist()) - {NO_OWNER}
        right = set(np.unique(fine[40:60, 40:60]).tolist()) - {NO_OWNER}
        assert len(right) >= len(left)

    def test_flat_hierarchy_all_hue(self, flat_hierarchy):
        res = NaturePlusFable().partition(flat_hierarchy, 4)
        res.validate(flat_hierarchy)
        loads = np.bincount(rasters(res)[0].ravel(), minlength=4)
        assert (loads > 0).all()  # hue blocking spreads the base grid

    def test_single_rank_everything_on_zero(self):
        h = two_core_hierarchy()
        res = NaturePlusFable().partition(h, 1)
        for raster in rasters(res):
            owned = raster[raster != NO_OWNER]
            assert (owned == 0).all()


class TestBilevels:
    def deep_hierarchy(self) -> GridHierarchy:
        domain = Box((0, 0), (16, 16))
        return GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((8, 8), (24, 24))], ratio=2),
                PatchLevel(2, [Box((20, 20), (44, 44))], ratio=2),
                PatchLevel(3, [Box((44, 44), (84, 84))], ratio=2),
            ],
        )

    def test_bilevel_pairs_share_decomposition(self):
        h = self.deep_hierarchy()
        res = NaturePlusFable(NatureFableParams(bilevel_size=2)).partition(h, 4)
        res.validate(h)
        # Levels 2 and 3 form a bi-level: level-3 owners refine level-2's.
        coarse = rasters(res)[2]
        fine = rasters(res)[3]
        up = np.repeat(np.repeat(coarse, 2, 0), 2, 1)
        owned = (fine != NO_OWNER) & (up != NO_OWNER)
        np.testing.assert_array_equal(fine[owned], up[owned])

    def test_bilevel_size_one_is_per_level(self):
        h = self.deep_hierarchy()
        res = NaturePlusFable(NatureFableParams(bilevel_size=1)).partition(h, 4)
        res.validate(h)

    def test_bilevel_size_three(self):
        h = self.deep_hierarchy()
        res = NaturePlusFable(NatureFableParams(bilevel_size=3)).partition(h, 4)
        res.validate(h)
