"""Hand-computed cases for the metric kernels.

Every case is written as a dense owner raster, the easiest form to
check by hand, and runs on the production path through
:meth:`OwnerMap.from_raster`.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.geometry import NO_OWNER, OwnerMap
from repro.partition import PartitionResult
from repro.simulator import (
    ghost_exchange_cells,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
)


def owners(array) -> np.ndarray:
    return np.asarray(array, dtype=np.int32)


def owner_map(array) -> OwnerMap:
    return OwnerMap.from_raster(owners(array))


def partition_result(arrays, nprocs=4) -> PartitionResult:
    return PartitionResult(tuple(map(owner_map, arrays)), nprocs=nprocs)


def random_owners(rng, shape, nprocs=5, hole_fraction=0.3) -> np.ndarray:
    raster = rng.integers(0, nprocs, size=shape).astype(np.int32)
    raster[rng.random(shape) < hole_fraction] = NO_OWNER
    return raster


class TestGhostExchange:
    def test_two_halves(self):
        raster = owners([[0, 0, 1, 1]] * 4).T  # vertical split, 4 faces
        assert ghost_exchange_cells(owner_map(raster), ghost_width=1) == 8

    def test_uniform_no_comm(self):
        raster = owners(np.zeros((4, 4)))
        assert ghost_exchange_cells(owner_map(raster)) == 0

    def test_unrefined_cells_ignored(self):
        raster = owners(np.full((4, 4), NO_OWNER))
        raster[0, 0] = 0
        raster[0, 1] = 1
        assert ghost_exchange_cells(owner_map(raster)) == 2

    def test_ghost_width_scales(self):
        raster = owners([[0, 1], [0, 1]])
        m = owner_map(raster)
        assert ghost_exchange_cells(m, 2) == 2 * ghost_exchange_cells(m, 1)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            ghost_exchange_cells(owner_map(np.zeros((2, 2))), -1)

    def test_checkerboard_worst_case(self):
        n = 4
        raster = owners(np.indices((n, n)).sum(axis=0) % 2)
        # Every interior face is a cut: 2*n*(n-1) faces, doubled.
        assert ghost_exchange_cells(owner_map(raster)) == 2 * 2 * n * (n - 1)


class TestMessagePairs:
    def test_two_halves_one_pair(self):
        raster = owners([[0, 0, 1, 1]] * 4).T
        # One pair, both directions.
        assert ghost_message_pairs(owner_map(raster)) == 2

    def test_three_stripes_two_pairs(self):
        raster = owners([[0] * 4, [1] * 4, [2] * 4])
        assert ghost_message_pairs(owner_map(raster)) == 4

    def test_uniform_zero(self):
        assert ghost_message_pairs(owner_map(np.ones((3, 3)))) == 0


class TestInterlevel:
    def test_aligned_zero(self):
        coarse = owners([[0, 1], [0, 1]])
        fine = np.repeat(np.repeat(coarse, 2, 0), 2, 1)
        assert interlevel_transfer_cells(
            owner_map(coarse), owner_map(fine), 2
        ) == 0

    def test_fully_mismatched(self):
        coarse = owners(np.zeros((2, 2)))
        fine = owners(np.ones((4, 4)))
        assert interlevel_transfer_cells(
            owner_map(coarse), owner_map(fine), 2
        ) == 16

    def test_unrefined_fine_ignored(self):
        coarse = owners(np.zeros((2, 2)))
        fine = owners(np.full((4, 4), NO_OWNER))
        fine[0, 0] = 1
        assert interlevel_transfer_cells(
            owner_map(coarse), owner_map(fine), 2
        ) == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            interlevel_transfer_cells(
                owner_map(np.zeros((2, 2))), owner_map(np.zeros((5, 5))), 2
            )

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            interlevel_transfer_cells(
                owner_map(np.zeros((2, 2))), owner_map(np.zeros((4, 4))), 0
            )


class TestBruteForce3D:
    """3-D metrics must agree with naive per-cell counting."""

    def test_ghost_exchange_and_pairs(self):
        rng = np.random.default_rng(11)
        raster = random_owners(rng, (6, 5, 4))
        faces = 0
        pairs: set[tuple[int, int]] = set()
        nx, ny, nz = raster.shape
        for i, j, k in itertools.product(range(nx), range(ny), range(nz)):
            a = raster[i, j, k]
            if a == NO_OWNER:
                continue
            for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                ii, jj, kk = i + di, j + dj, k + dk
                if ii >= nx or jj >= ny or kk >= nz:
                    continue
                b = raster[ii, jj, kk]
                if b == NO_OWNER or b == a:
                    continue
                faces += 1
                pairs.add((min(a, b), max(a, b)))
        assert ghost_exchange_cells(owner_map(raster), ghost_width=1) == 2 * faces
        assert ghost_message_pairs(owner_map(raster)) == 2 * len(pairs)

    def test_interlevel_transfer(self):
        rng = np.random.default_rng(12)
        coarse = random_owners(rng, (3, 4, 2))
        fine = random_owners(rng, (6, 8, 4))
        expected = 0
        for i, j, k in itertools.product(range(6), range(8), range(4)):
            f = fine[i, j, k]
            c = coarse[i // 2, j // 2, k // 2]
            if f != NO_OWNER and c != NO_OWNER and f != c:
                expected += 1
        assert interlevel_transfer_cells(
            owner_map(coarse), owner_map(fine), 2
        ) == expected

    def test_migration(self):
        rng = np.random.default_rng(13)
        shape0, shape1 = (3, 3, 3), (6, 6, 6)
        prev_rasters, cur_rasters = (
            (
                rng.integers(0, 4, size=shape0).astype(np.int32),
                random_owners(rng, shape1, nprocs=4),
            )
            for _ in range(2)
        )
        expected = 0
        for i, j, k in itertools.product(range(3), repeat=3):
            if cur_rasters[0][i, j, k] != prev_rasters[0][i, j, k]:
                expected += 1
        for i, j, k in itertools.product(range(6), repeat=3):
            b = cur_rasters[1][i, j, k]
            if b == NO_OWNER:
                continue
            src = prev_rasters[1][i, j, k]
            if src == NO_OWNER:
                src = prev_rasters[0][i // 2, j // 2, k // 2]
            if src != b:
                expected += 1
        assert migration_cells(
            partition_result(prev_rasters), partition_result(cur_rasters)
        ) == expected


class TestMigration:
    def test_identical_zero(self):
        base = np.zeros((4, 4))
        a = partition_result([base])
        assert migration_cells(a, a) == 0

    def test_owner_change_counted(self):
        a = partition_result([np.zeros((4, 4))])
        b = partition_result([np.ones((4, 4))])
        assert migration_cells(a, b) == 16

    def test_new_fine_cells_fetch_from_parent(self):
        # Level 1 appears at t: all 4x4 fine cells interpolate from the
        # level-0 owner (0); new owner 1 => all 16 migrate.
        prev = partition_result([np.zeros((2, 2))])
        cur = partition_result([np.zeros((2, 2)), np.ones((4, 4))])
        assert migration_cells(prev, cur) == 16

    def test_new_fine_cells_local_parent_no_migration(self):
        prev = partition_result([np.zeros((2, 2))])
        cur = partition_result([np.zeros((2, 2)), np.zeros((4, 4))])
        assert migration_cells(prev, cur) == 0

    def test_persisting_fine_cell_prefers_own_old_owner(self):
        # Fine cell existed at t-1 with owner 1 and stays owner 1 at t,
        # while the parent belongs to rank 0: no migration (data is local).
        fine_prev = np.full((4, 4), NO_OWNER)
        fine_prev[:2, :2] = 1
        fine_cur = fine_prev.copy()
        prev = partition_result([np.zeros((2, 2)), fine_prev])
        cur = partition_result([np.zeros((2, 2)), fine_cur])
        assert migration_cells(prev, cur) == 0

    def test_deleted_levels_ignored(self):
        prev = partition_result([np.zeros((2, 2)), np.zeros((4, 4))])
        cur = partition_result([np.zeros((2, 2))])
        assert migration_cells(prev, cur) == 0

    def test_shape_mismatch_rejected(self):
        a = partition_result([np.zeros((2, 2))])
        b = partition_result([np.zeros((4, 4))])
        with pytest.raises(ValueError):
            migration_cells(a, b)

    def test_grandparent_fallback(self):
        # Level 2 is new and level 1 did not exist at t-1: data comes from
        # level 0 owners.
        prev = partition_result([np.zeros((2, 2))])
        lvl1 = np.full((4, 4), np.int32(1))
        lvl2 = np.full((8, 8), np.int32(2))
        cur = partition_result([np.zeros((2, 2)), lvl1, lvl2])
        # lvl1: 16 cells sourced from rank 0, owned by 1 -> 16.
        # lvl2: 64 cells sourced via lvl1's *source* (rank 0) ... but lvl1
        # exists at t? No: sources always come from the PREVIOUS
        # distribution; lvl1 didn't exist at t-1, so lvl2's source is the
        # upsampled level-0 owner (0), and its owner is 2 -> 64.
        assert migration_cells(prev, cur) == 16 + 64
