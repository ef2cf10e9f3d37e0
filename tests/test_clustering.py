"""Tests for Berger--Rigoutsos clustering and the flagging utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import (
    ClusterParams,
    buffer_flags,
    cluster_flags,
    gradient_indicator,
)
from repro.geometry import Box, rasterize_mask


class TestClusterParams:
    def test_defaults(self):
        p = ClusterParams()
        assert 0 < p.efficiency <= 1
        assert p.granularity >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"efficiency": 0.0},
            {"efficiency": 1.5},
            {"granularity": 0},
            {"granularity": 4, "max_cells": 8},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ClusterParams(**kwargs)


class TestClusterFlags:
    def test_empty_flags(self):
        assert cluster_flags(np.zeros((16, 16), dtype=bool)) == []

    def test_single_block(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[4:8, 4:8] = True
        boxes = cluster_flags(flags)
        assert len(boxes) == 1
        assert boxes[0] == Box((4, 4), (8, 8))

    def test_two_separated_blocks_split_at_hole(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[1:4, 1:4] = True
        flags[10:14, 10:14] = True
        boxes = cluster_flags(flags)
        assert len(boxes) == 2
        total = sum(b.ncells for b in boxes)
        assert total == 9 + 16

    def test_covers_all_flags(self):
        rng = np.random.default_rng(7)
        flags = rng.random((32, 32)) > 0.85
        boxes = cluster_flags(flags)
        covered = rasterize_mask(boxes, Box((0, 0), (32, 32)))
        assert (covered | ~flags).all()  # flags => covered

    def test_boxes_disjoint(self):
        rng = np.random.default_rng(9)
        flags = rng.random((32, 32)) > 0.7
        boxes = cluster_flags(flags)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)

    def test_efficiency_met_or_unsplittable(self):
        rng = np.random.default_rng(11)
        flags = rng.random((64, 64)) > 0.8
        params = ClusterParams(efficiency=0.7, granularity=2)
        boxes = cluster_flags(flags, params)
        for b in boxes:
            sub = flags[b.lo[0] : b.hi[0], b.lo[1] : b.hi[1]]
            eff = sub.sum() / sub.size
            splittable = any(s >= 2 * params.granularity for s in b.shape)
            assert eff >= params.efficiency or not splittable

    def test_max_cells_respected_when_splittable(self):
        flags = np.ones((32, 32), dtype=bool)
        boxes = cluster_flags(flags, ClusterParams(max_cells=64, granularity=2))
        assert all(b.ncells <= 64 for b in boxes)
        assert sum(b.ncells for b in boxes) == 32 * 32

    def test_l_shaped_region(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[0:12, 0:4] = True
        flags[0:4, 4:12] = True
        boxes = cluster_flags(flags, ClusterParams(efficiency=0.9))
        covered = rasterize_mask(boxes, Box((0, 0), (16, 16)))
        assert (covered | ~flags).all()
        # High efficiency forces the L to split rather than bound.
        assert len(boxes) >= 2

    def test_dtype_coercion(self):
        flags = np.zeros((8, 8), dtype=np.int64)
        flags[2:4, 2:4] = 1
        boxes = cluster_flags(flags)
        assert sum(b.ncells for b in boxes) >= 4

    @given(
        hnp.arrays(
            dtype=bool,
            shape=st.tuples(
                st.integers(4, 24), st.integers(4, 24)
            ),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_cover_and_disjoint_property(self, flags):
        boxes = cluster_flags(flags)
        domain = Box((0, 0), flags.shape)
        covered = rasterize_mask(boxes, domain)
        assert (covered | ~flags).all()
        for i, a in enumerate(boxes):
            assert domain.contains_box(a)
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)


class TestIndicator:
    def test_constant_field_zero(self):
        ind = gradient_indicator(np.full((8, 8), 3.5))
        assert (ind == 0).all()

    def test_step_detected(self):
        field = np.zeros((16, 16))
        field[8:, :] = 1.0
        ind = gradient_indicator(field)
        assert ind.max() == 1.0
        assert ind[7:9, :].max() == 1.0
        assert ind[0:4, :].max() == 0.0

    def test_normalized_range(self):
        rng = np.random.default_rng(3)
        ind = gradient_indicator(rng.random((16, 16)))
        assert 0 <= ind.min() and ind.max() == 1.0


class TestBufferFlags:
    def test_buffer_grows(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[8, 8] = True
        buffered = buffer_flags(flags, 2)
        assert buffered.sum() == 25

    def test_buffer_zero_identity(self):
        flags = np.zeros((8, 8), dtype=bool)
        flags[1, 1] = True
        assert (buffer_flags(flags, 0) == flags).all()

    def test_buffer_negative_rejected(self):
        with pytest.raises(ValueError):
            buffer_flags(np.zeros((4, 4), dtype=bool), -1)
