"""Tests for the Morton and Hilbert space-filling curves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sfc import (
    hilbert_key,
    hilbert_key_nd,
    max_order,
    morton_key,
    morton_key_nd,
    sfc_order_nd,
)

from tests.sfc_oracle import (
    hilbert_inverse,
    hilbert_inverse_nd,
    morton_inverse,
    morton_inverse_nd,
)


coords = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestMorton:
    def test_known_values(self):
        # Interleaving: (x=1, y=0) -> 1; (x=0, y=1) -> 2; (x=1, y=1) -> 3.
        assert int(morton_key(np.array(1), np.array(0))) == 1
        assert int(morton_key(np.array(0), np.array(1))) == 2
        assert int(morton_key(np.array(1), np.array(1))) == 3
        assert int(morton_key(np.array(2), np.array(3))) == 14

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=50))
    def test_bijective(self, pts):
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        keys = morton_key(x, y, order=10)
        xi, yi = morton_inverse(keys)
        np.testing.assert_array_equal(xi, x)
        np.testing.assert_array_equal(yi, y)

    def test_full_grid_is_permutation(self):
        n = 16
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        keys = morton_key(ix.ravel(), iy.ravel(), order=4)
        assert len(np.unique(keys)) == n * n
        assert keys.max() == n * n - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_key(np.array([1 << 5]), np.array([0]), order=5)
        with pytest.raises(ValueError):
            morton_key(np.array([-1]), np.array([0]), order=5)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            morton_key(np.array([0]), np.array([0]), order=0)


class TestHilbert:
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=50))
    def test_bijective(self, pts):
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        keys = hilbert_key(x, y, order=10)
        xi, yi = hilbert_inverse(keys, order=10)
        np.testing.assert_array_equal(xi, x)
        np.testing.assert_array_equal(yi, y)

    def test_full_grid_is_permutation(self):
        n = 16
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        keys = hilbert_key(ix.ravel(), iy.ravel(), order=4)
        assert len(np.unique(keys)) == n * n
        assert keys.max() == n * n - 1

    def test_adjacency(self):
        """Consecutive Hilbert cells are face neighbours (full locality)."""
        n = 32
        keys = np.arange(n * n, dtype=np.uint64)
        x, y = hilbert_inverse(keys, order=5)
        dist = np.abs(np.diff(x)) + np.abs(np.diff(y))
        assert (dist == 1).all()

    def test_morton_not_fully_adjacent(self):
        """Morton (partially ordered) has jumps — the contrast the paper draws."""
        n = 32
        keys = np.arange(n * n, dtype=np.uint64)
        x, y = morton_inverse(keys)
        dist = np.abs(np.diff(x)) + np.abs(np.diff(y))
        assert (dist > 1).any()

    def test_scalar_input(self):
        assert int(hilbert_key(np.array(0), np.array(0), order=4)) == 0


nd_coords = st.integers(min_value=0, max_value=(1 << 8) - 1)


class TestMortonNd:
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.tuples(nd_coords, nd_coords, nd_coords, nd_coords, nd_coords),
            min_size=1,
            max_size=40,
        ),
    )
    def test_bijective_any_dimension(self, ndim, pts):
        coords_nd = [np.array([p[d] for p in pts]) for d in range(ndim)]
        keys = morton_key_nd(coords_nd, order=8)
        inv = morton_inverse_nd(keys, ndim, order=8)
        for c, i in zip(coords_nd, inv):
            np.testing.assert_array_equal(i, c)

    def test_matches_2d_fast_path(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 1 << 10, size=200)
        y = rng.integers(0, 1 << 10, size=200)
        np.testing.assert_array_equal(
            morton_key_nd([x, y], order=10), morton_key(x, y, order=10)
        )

    def test_full_grid_is_permutation_3d(self):
        n = 8
        grids = np.indices((n, n, n)).reshape(3, -1)
        keys = morton_key_nd(list(grids), order=3)
        assert len(np.unique(keys)) == n**3
        assert keys.max() == n**3 - 1

    def test_order_limit_scales_with_ndim(self):
        assert max_order(2) == 31
        assert max_order(3) == 21
        with pytest.raises(ValueError):
            morton_key_nd([np.array([0])] * 3, order=22)


class TestHilbertNd:
    @given(
        st.integers(min_value=3, max_value=4),
        st.lists(
            st.tuples(nd_coords, nd_coords, nd_coords, nd_coords),
            min_size=1,
            max_size=40,
        ),
    )
    def test_bijective(self, ndim, pts):
        coords_nd = [np.array([p[d] for p in pts]) for d in range(ndim)]
        keys = hilbert_key_nd(coords_nd, order=8)
        inv = hilbert_inverse_nd(keys, ndim, order=8)
        for c, i in zip(coords_nd, inv):
            np.testing.assert_array_equal(i, c)

    def test_matches_2d_fast_path(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 1 << 10, size=200)
        y = rng.integers(0, 1 << 10, size=200)
        np.testing.assert_array_equal(
            hilbert_key_nd([x, y], order=10), hilbert_key(x, y, order=10)
        )

    def test_full_grid_is_permutation_3d(self):
        n = 8
        grids = np.indices((n, n, n)).reshape(3, -1)
        keys = hilbert_key_nd(list(grids), order=3)
        assert len(np.unique(keys)) == n**3
        assert keys.max() == n**3 - 1

    def test_adjacency_3d(self):
        """Consecutive 3-D Hilbert cells are face neighbours."""
        n = 16
        keys = np.arange(n**3, dtype=np.uint64)
        x, y, z = hilbert_inverse_nd(keys, 3, order=4)
        dist = np.abs(np.diff(x)) + np.abs(np.diff(y)) + np.abs(np.diff(z))
        assert (dist == 1).all()

    def test_morton_3d_not_fully_adjacent(self):
        n = 16
        keys = np.arange(n**3, dtype=np.uint64)
        x, y, z = morton_inverse_nd(keys, 3, order=4)
        dist = np.abs(np.diff(x)) + np.abs(np.diff(y)) + np.abs(np.diff(z))
        assert (dist > 1).any()


class TestSfcOrderNd:
    def test_orders_all_elements_3d(self):
        rng = np.random.default_rng(2)
        coords_3d = [rng.integers(0, 32, size=80) for _ in range(3)]
        for curve in ("hilbert", "morton"):
            order = sfc_order_nd(coords_3d, curve=curve, order=5)
            assert sorted(order.tolist()) == list(range(80))


class TestSfcOrder:
    def test_orders_all_elements(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 64, size=100)
        y = rng.integers(0, 64, size=100)
        for curve in ("hilbert", "morton"):
            order = sfc_order_nd((x, y), curve=curve, order=6)
            assert sorted(order.tolist()) == list(range(100))

    def test_unknown_curve(self):
        with pytest.raises(ValueError, match="unknown curve"):
            sfc_order_nd((np.array([0]), np.array([0])), curve="peano")

    def test_hilbert_locality_beats_morton(self):
        """Mean jump distance along the curve: Hilbert <= Morton."""
        n = 32
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        x, y = ix.ravel(), iy.ravel()

        def mean_jump(curve):
            order = sfc_order_nd((x, y), curve=curve, order=5)
            xs, ys = x[order], y[order]
            return (np.abs(np.diff(xs)) + np.abs(np.diff(ys))).mean()

        assert mean_jump("hilbert") <= mean_jump("morton")
