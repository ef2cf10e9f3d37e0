"""Tests for every partitioner family: correctness, invariants, behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine import create, registry
from repro.geometry import NO_OWNER, Box
from repro.hierarchy import GridHierarchy, PatchLevel
from repro.partition import (
    DomainSfcPartitioner,
    NatureFableParams,
    NaturePlusFable,
    PartitionResult,
    PatchBasedPartitioner,
    StickyRepartitioner,
    column_workloads,
    proc_loads,
)

from tests.strategies import nested_hierarchies_2d

ALL_PARTITIONERS = [
    DomainSfcPartitioner(),
    DomainSfcPartitioner(curve="morton"),
    DomainSfcPartitioner(exact=True, unit_size=1),
    PatchBasedPartitioner(),
    PatchBasedPartitioner(strategy="round-robin"),
    PatchBasedPartitioner(split_oversized=False),
    NaturePlusFable(),
    NaturePlusFable(NatureFableParams().balance_focused()),
    NaturePlusFable(NatureFableParams().locality_focused()),
    NaturePlusFable(NatureFableParams(q=3)),
    StickyRepartitioner(DomainSfcPartitioner()),
    StickyRepartitioner(NaturePlusFable(), migration_budget=None),
]


@pytest.mark.parametrize("part", ALL_PARTITIONERS, ids=lambda p: repr(p.describe()))
@pytest.mark.parametrize("nprocs", [1, 3, 8])
class TestUniversalInvariants:
    def test_complete_and_valid(self, simple_hierarchy, part, nprocs):
        res = part.partition(simple_hierarchy, nprocs)
        res.validate(simple_hierarchy)
        assert res.nprocs == nprocs

    def test_all_ranks_within_range(self, simple_hierarchy, part, nprocs):
        res = part.partition(simple_hierarchy, nprocs)
        for raster in res.rasters():
            owned = raster[raster != NO_OWNER]
            if owned.size:
                assert owned.min() >= 0 and owned.max() < nprocs

    def test_total_load_preserved(self, simple_hierarchy, part, nprocs):
        res = part.partition(simple_hierarchy, nprocs)
        loads = proc_loads(res, simple_hierarchy)
        assert loads.sum() == pytest.approx(simple_hierarchy.workload)

    def test_flat_hierarchy(self, flat_hierarchy, part, nprocs):
        res = part.partition(flat_hierarchy, nprocs)
        res.validate(flat_hierarchy)

    def test_cost_positive(self, simple_hierarchy, part, nprocs):
        assert part.cost_seconds(simple_hierarchy, nprocs) > 0

    def test_describe_has_name(self, simple_hierarchy, part, nprocs):
        assert "name" in part.describe()


@pytest.mark.parametrize("part", ALL_PARTITIONERS, ids=lambda p: repr(p.describe()))
def test_deterministic(simple_hierarchy, part):
    a = part.partition(simple_hierarchy, 4)
    b = part.partition(simple_hierarchy, 4)
    for ra, rb in zip(a.rasters(), b.rasters()):
        np.testing.assert_array_equal(ra, rb)


@pytest.mark.parametrize("part", ALL_PARTITIONERS, ids=lambda p: repr(p.describe()))
def test_on_real_traces(small_traces, part):
    """Every partitioner handles every snapshot of every kernel."""
    for name in ("sc2d", "rm2d"):
        prev = None
        for snap in small_traces[name]:
            res = part.partition(snap.hierarchy, 4, previous=prev)
            res.validate(snap.hierarchy)
            prev = res


#: Registered partitioners that decompose the base domain in atomic
#: units of 2 cells, so an odd base side is a documented error.
DOMAIN_SFC_FAMILY = ("domain-sfc-hilbert", "domain-sfc-morton", "sticky-sfc")


class TestRandomHierarchies:
    """Universal invariants of every registered partitioner on random
    properly nested hierarchies."""

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    @pytest.mark.parametrize("name", tuple(registry("partitioner")))
    @settings(max_examples=25, deadline=None)
    @given(hierarchy=nested_hierarchies_2d())
    def test_invariants(self, name, nprocs, hierarchy):
        hierarchy.validate()
        res = create("partitioner", name).partition(hierarchy, nprocs)
        res.validate(hierarchy)
        assert res.nprocs == nprocs
        for owner_map in res.maps:
            if owner_map.nboxes:
                assert 0 <= owner_map.ranks.min()
                assert owner_map.ranks.max() < nprocs
        loads = proc_loads(res, hierarchy)
        assert loads.sum() == pytest.approx(hierarchy.workload)
        again = create("partitioner", name).partition(hierarchy, nprocs)
        assert again.maps == res.maps

    @pytest.mark.parametrize("name", DOMAIN_SFC_FAMILY)
    @settings(max_examples=10, deadline=None)
    @given(hierarchy=nested_hierarchies_2d(even=False))
    def test_odd_base_shape_is_rejected(self, name, hierarchy):
        with pytest.raises(ValueError, match="unit_size 2 does not divide base shape"):
            create("partitioner", name).partition(hierarchy, 3)


class TestPartitionResult:
    def test_legacy_raster_construction_round_trips(self):
        raster = np.array([[0, 0, 1], [2, 2, 1]], dtype=np.int32)
        res = PartitionResult(owners=(raster,), nprocs=3)
        np.testing.assert_array_equal(res.maps[0].rasterize(), raster)
        np.testing.assert_array_equal(res.rasters()[0], raster)

    def test_maps_and_owners_are_exclusive(self):
        raster = np.zeros((2, 2), dtype=np.int32)
        from repro.geometry import OwnerMap

        with pytest.raises(ValueError, match="exactly one"):
            PartitionResult(
                maps=(OwnerMap.from_raster(raster),), owners=(raster,), nprocs=1
            )
        with pytest.raises(ValueError, match="exactly one"):
            PartitionResult(nprocs=1)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="int32"):
            PartitionResult(
                owners=(np.zeros((4, 4), dtype=np.int64),), nprocs=2
            )

    def test_rejects_bad_nprocs(self):
        with pytest.raises(ValueError):
            PartitionResult(owners=(), nprocs=0)

    def test_validate_detects_unowned(self, flat_hierarchy):
        raster = np.full((16, 16), NO_OWNER, dtype=np.int32)
        res = PartitionResult(owners=(raster,), nprocs=2)
        with pytest.raises(ValueError, match="unowned"):
            res.validate(flat_hierarchy)

    def test_validate_detects_level_count(self, simple_hierarchy):
        raster = np.zeros((16, 16), dtype=np.int32)
        res = PartitionResult(owners=(raster,), nprocs=2)
        with pytest.raises(ValueError, match="rasters for"):
            res.validate(simple_hierarchy)

    def test_validate_detects_out_of_range_rank(self, flat_hierarchy):
        raster = np.full((16, 16), 5, dtype=np.int32)
        res = PartitionResult(owners=(raster,), nprocs=2)
        with pytest.raises(ValueError, match="outside"):
            res.validate(flat_hierarchy)


class TestDomainSfc:
    def test_column_workloads(self, simple_hierarchy):
        w = column_workloads(simple_hierarchy, unit_size=2)
        assert w.shape == (8, 8)
        assert w.sum() == pytest.approx(simple_hierarchy.workload)
        # Columns under the refinement are heavier than unrefined ones.
        assert w.max() > w.min()

    def test_unit_size_must_divide(self, simple_hierarchy):
        with pytest.raises(ValueError, match="does not divide"):
            column_workloads(simple_hierarchy, unit_size=3)

    def test_column_alignment_property(self, simple_hierarchy):
        """Domain-based: all levels above a base column share the owner."""
        part = DomainSfcPartitioner(unit_size=1)
        res = part.partition(simple_hierarchy, 4)
        base = res.rasters()[0]
        for l in range(1, simple_hierarchy.nlevels):
            ratio = simple_hierarchy.cumulative_ratio(l)
            up = np.repeat(np.repeat(base, ratio, 0), ratio, 1)
            raster = res.rasters()[l]
            owned = raster != NO_OWNER
            np.testing.assert_array_equal(raster[owned], up[owned])

    def test_exact_beats_greedy_imbalance(self, small_traces):
        h = small_traces["sc2d"][-1].hierarchy
        greedy = DomainSfcPartitioner(unit_size=1)
        exact = DomainSfcPartitioner(unit_size=1, exact=True)
        li_g = proc_loads(greedy.partition(h, 8), h).max()
        li_e = proc_loads(exact.partition(h, 8), h).max()
        assert li_e <= li_g + 1e-9

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DomainSfcPartitioner(curve="zigzag")
        with pytest.raises(ValueError):
            DomainSfcPartitioner(unit_size=0)


class TestPatchBased:
    def test_lpt_beats_round_robin(self, small_traces):
        h = small_traces["rm2d"][-1].hierarchy
        lpt = PatchBasedPartitioner()
        rr = PatchBasedPartitioner(strategy="round-robin")
        li_lpt = proc_loads(lpt.partition(h, 8), h).max()
        li_rr = proc_loads(rr.partition(h, 8), h).max()
        assert li_lpt <= li_rr + 1e-9

    def test_split_oversized_caps_patches(self):
        # One giant patch on level 1 must be chopped across ranks.
        domain = Box((0, 0), (16, 16))
        h = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(1, [Box((0, 0), (32, 32))], ratio=2),
            ],
        )
        res = PatchBasedPartitioner().partition(h, 4)
        counts = np.bincount(
            res.rasters()[1][res.rasters()[1] != NO_OWNER], minlength=4
        )
        assert (counts > 0).all()  # every rank got a share of the big patch

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            PatchBasedPartitioner(strategy="magic")


class TestNaturePlusFable:
    def test_default_params(self):
        p = NaturePlusFable()
        assert p.params.bilevel_size == 2

    def test_balance_focused_has_smaller_units(self):
        base = NatureFableParams()
        bal = base.balance_focused()
        assert bal.atomic_unit <= base.atomic_unit
        assert bal.fractional_blocking

    def test_locality_focused_uses_hilbert(self):
        loc = NatureFableParams().locality_focused()
        assert loc.curve == "hilbert"
        assert loc.q == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"atomic_unit": 0},
            {"q": 0},
            {"curve": "peano"},
            {"bilevel_size": 0},
        ],
    )
    def test_param_validation(self, kwargs):
        with pytest.raises(ValueError):
            NatureFableParams(**kwargs)

    def test_bilevel_alignment(self, simple_hierarchy):
        """Within a bi-level, fine owners refine the coarse decomposition."""
        part = NaturePlusFable(NatureFableParams(bilevel_size=2))
        res = part.partition(simple_hierarchy, 4)
        coarse = res.rasters()[0]
        fine = res.rasters()[1]
        up = np.repeat(np.repeat(coarse, 2, 0), 2, 1)
        owned = fine != NO_OWNER
        # Where both the level-0 cell is in a core and the level-1 cell is
        # refined, the bi-level decomposition makes them agree.
        refined_base = simple_hierarchy.refined_mask_on_base()
        core_up = np.repeat(np.repeat(refined_base, 2, 0), 2, 1)
        sel = owned & core_up
        np.testing.assert_array_equal(fine[sel], up[sel])

    def test_q_improves_balance(self, small_traces):
        h = small_traces["sc2d"][-1].hierarchy
        q1 = NaturePlusFable(NatureFableParams(q=1))
        q4 = NaturePlusFable(NatureFableParams(q=4, atomic_unit=1))
        li_1 = proc_loads(q1.partition(h, 8), h).max()
        li_4 = proc_loads(q4.partition(h, 8), h).max()
        assert li_4 <= li_1 * 1.05  # q>1 should not be (meaningfully) worse

    def test_group_allocation_stability(self):
        """Small workload drift moves at most boundary ranks."""
        alloc = NaturePlusFable._allocate_groups
        a = alloc([10.0, 30.0, 60.0], 10)
        b = alloc([11.0, 30.0, 59.0], 10)
        # Same number of groups, sizes differ by at most 1.
        for ga, gb in zip(a, b):
            assert abs(ga.size - gb.size) <= 1

    def test_group_allocation_covers_all_ranks(self):
        alloc = NaturePlusFable._allocate_groups
        groups = alloc([5.0, 1.0, 1.0], 8)
        all_ranks = np.concatenate(groups)
        np.testing.assert_array_equal(np.sort(all_ranks), np.arange(8))

    def test_more_regions_than_ranks(self):
        alloc = NaturePlusFable._allocate_groups
        groups = alloc([1.0] * 5, 3)
        assert len(groups) == 5
        for g in groups:
            assert g.size == 1 and 0 <= g[0] < 3


class TestSticky:
    def test_first_call_matches_inner(self, simple_hierarchy):
        inner = DomainSfcPartitioner()
        sticky = StickyRepartitioner(inner)
        a = sticky.partition(simple_hierarchy, 4)
        b = inner.partition(simple_hierarchy, 4)
        for ra, rb in zip(a.rasters(), b.rasters()):
            np.testing.assert_array_equal(ra, rb)

    def test_identical_hierarchy_zero_migration(self, simple_hierarchy):
        from repro.simulator import migration_cells

        sticky = StickyRepartitioner(NaturePlusFable(), migration_budget=0.0)
        first = sticky.partition(simple_hierarchy, 4)
        second = sticky.partition(simple_hierarchy, 4, previous=first)
        assert migration_cells(first, second) == 0

    def test_reduces_migration_vs_fresh(self, small_traces):
        from repro.simulator import migration_cells

        inner = NaturePlusFable()
        sticky = StickyRepartitioner(inner, migration_budget=0.05)
        prev_f = prev_s = None
        fresh_total = sticky_total = 0
        for snap in small_traces["sc2d"]:
            cur_f = inner.partition(snap.hierarchy, 4, prev_f)
            cur_s = sticky.partition(snap.hierarchy, 4, prev_s)
            if prev_f is not None:
                fresh_total += migration_cells(prev_f, cur_f)
                sticky_total += migration_cells(prev_s, cur_s)
            prev_f, prev_s = cur_f, cur_s
        assert sticky_total <= fresh_total

    def test_nprocs_change_resets(self, simple_hierarchy):
        sticky = StickyRepartitioner(DomainSfcPartitioner())
        first = sticky.partition(simple_hierarchy, 4)
        second = sticky.partition(simple_hierarchy, 8, previous=first)
        second.validate(simple_hierarchy)
        assert second.nprocs == 8

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StickyRepartitioner(DomainSfcPartitioner(), imbalance_tolerance=0.5)
        with pytest.raises(ValueError):
            StickyRepartitioner(DomainSfcPartitioner(), migration_budget=-0.1)

    def test_diffusion_respects_tolerance_when_unbounded(self, small_traces):
        h = small_traces["sc2d"][-1].hierarchy
        prev_h = small_traces["sc2d"][-2].hierarchy
        inner = DomainSfcPartitioner(unit_size=1)
        sticky = StickyRepartitioner(
            inner, imbalance_tolerance=1.5, migration_budget=None
        )
        prev = sticky.partition(prev_h, 4)
        res = sticky.partition(h, 4, previous=prev)
        loads = proc_loads(res, h)
        inner_loads = proc_loads(inner.partition(h, 4), h)
        # The diffusion pass should not be wildly worse than the fresh
        # partition's bottleneck.
        assert loads.max() <= max(
            1.5 * loads.mean() + 1e-9, inner_loads.max() * 1.5
        )
