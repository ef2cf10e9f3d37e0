"""Tests for trade-off 2, the classification space and the state sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import (
    ClassificationPoint,
    GridSizeTracker,
    StateSampler,
    StateTrajectory,
    Tradeoff2Model,
)


class TestGridSizeTracker:
    def test_running_max(self):
        t = GridSizeTracker()
        assert t.observe(100) == pytest.approx(1.0)
        assert t.observe(50) == pytest.approx(0.5)
        assert t.observe(200) == pytest.approx(1.0)
        assert t.max_cells == 200

    def test_zero_start(self):
        t = GridSizeTracker()
        assert t.observe(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GridSizeTracker().observe(-1)


class TestTradeoff2Model:
    def test_no_need_no_request(self):
        m = Tradeoff2Model()
        s = m.evaluate((0.0, 0.0, 0.0), 1000, 1.0, 10.0)
        assert s.requested_fraction == 0.0
        assert s.requested_seconds == 0.0
        assert s.dimension2 == 0.0  # anything on offer wins

    def test_max_need_tiny_slot(self):
        m = Tradeoff2Model(slack=0.1)
        s = m.evaluate((1.0, 1.0, 1.0), 10_000, 1.0, 1e-9)
        assert s.dimension2 > 0.99  # must optimize speed

    def test_grid_size_scales_request(self):
        """Section 4.2: same penalties at a grid-size peak request more."""
        m = Tradeoff2Model()
        at_peak = m.evaluate((0.5, 0.5, 0.5), 1000, 1.0, 1.0)
        at_trough = m.evaluate((0.5, 0.5, 0.5), 1000, 0.1, 1.0)
        assert at_peak.requested_seconds > at_trough.requested_seconds
        assert at_peak.dimension2 >= at_trough.dimension2

    def test_longer_interval_offers_more(self):
        """Section 4.3: infrequent invocation -> greater claimable slot."""
        m = Tradeoff2Model()
        rare = m.evaluate((0.5, 0.5, 0.5), 1000, 1.0, 100.0)
        frequent = m.evaluate((0.5, 0.5, 0.5), 1000, 1.0, 0.001)
        assert rare.offered_seconds > frequent.offered_seconds
        assert rare.dimension2 < frequent.dimension2

    def test_break_even_at_equal(self):
        m = Tradeoff2Model(slack=1.0, quality_cost_per_cell=1.0)
        s = m.evaluate((1.0, 1.0, 1.0), 100, 1.0, 100.0)
        assert s.dimension2 == pytest.approx(0.5)

    def test_degenerate_zero_everything(self):
        m = Tradeoff2Model()
        s = m.evaluate((0.0, 0.0, 0.0), 0, 0.0, 0.0)
        assert s.dimension2 == 0.5

    def test_validation(self):
        m = Tradeoff2Model()
        with pytest.raises(ValueError):
            m.evaluate((1.5, 0.0, 0.0), 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            m.evaluate((0.0, 0.0, 0.0), 10, 2.0, 1.0)
        with pytest.raises(ValueError):
            m.evaluate((0.0, 0.0, 0.0), 10, 1.0, -1.0)
        with pytest.raises(ValueError):
            Tradeoff2Model(slack=0.0)
        with pytest.raises(ValueError):
            Tradeoff2Model(quality_cost_per_cell=0.0)


class TestClassificationPoint:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ClassificationPoint(1.5, 0.0, 0.0)

    def test_octants(self):
        assert ClassificationPoint(0.1, 0.1, 0.1).octant() == 0
        assert ClassificationPoint(0.9, 0.1, 0.1).octant() == 1
        assert ClassificationPoint(0.1, 0.9, 0.1).octant() == 2
        assert ClassificationPoint(0.9, 0.9, 0.9).octant() == 7

    def test_octant_threshold(self):
        p = ClassificationPoint(0.4, 0.4, 0.4)
        assert p.octant(threshold=0.3) == 7
        with pytest.raises(ValueError):
            p.octant(threshold=1.0)

    def test_as_array(self):
        p = ClassificationPoint(0.2, 0.4, 0.6)
        np.testing.assert_allclose(p.as_array(), [0.2, 0.4, 0.6])


class TestStateTrajectory:
    def make(self) -> StateTrajectory:
        return StateTrajectory(
            [
                ClassificationPoint(0.1, 0.2, 0.3),
                ClassificationPoint(0.2, 0.2, 0.3),
                ClassificationPoint(0.9, 0.8, 0.7),
            ]
        )

    def test_series(self):
        tr = self.make()
        np.testing.assert_allclose(tr.series(1), [0.1, 0.2, 0.9])
        np.testing.assert_allclose(tr.series(3), [0.3, 0.3, 0.7])
        with pytest.raises(ValueError):
            tr.series(4)

    def test_arc_length(self):
        tr = self.make()
        assert tr.arc_length() > 0
        assert StateTrajectory([ClassificationPoint(0, 0, 0)]).arc_length() == 0.0

    def test_octant_transitions(self):
        tr = self.make()
        assert tr.octant_transitions() == 1

    def test_append_and_container(self):
        tr = StateTrajectory()
        tr.append(ClassificationPoint(0.5, 0.5, 0.5))
        assert len(tr) == 1
        assert tr[0].dim1 == 0.5
        assert list(iter(tr))


class TestStateSampler:
    def test_sample_counts(self, small_traces):
        sampler = StateSampler(nprocs=4)
        samples = sampler.sample_trace(small_traces["bl2d"])
        assert len(samples) == len(small_traces["bl2d"])

    def test_first_beta_m_zero(self, small_traces):
        sampler = StateSampler(nprocs=4)
        samples = sampler.sample_trace(small_traces["bl2d"])
        assert samples[0].beta_m == 0.0

    def test_all_penalties_in_range(self, small_traces):
        sampler = StateSampler(nprocs=4)
        for name, tr in small_traces.items():
            for s in sampler.sample_trace(tr):
                assert 0.0 <= s.beta_l <= 1.0
                assert 0.0 <= s.beta_c <= 1.0
                assert 0.0 <= s.beta_m <= 1.0

    def test_penalty_series_shapes(self, small_traces):
        sampler = StateSampler(nprocs=4)
        ps = sampler.penalty_series(small_traces["sc2d"])
        n = len(small_traces["sc2d"])
        for arr in (ps.beta_l, ps.beta_c, ps.beta_m, ps.dim1, ps.dim2, ps.dim3):
            assert arr.shape == (n,)
        assert (ps.dim3 == ps.beta_m).all()

    def test_trajectory_matches_samples(self, small_traces):
        sampler = StateSampler(nprocs=4)
        traj = sampler.trajectory(small_traces["sc2d"])
        assert len(traj) == len(small_traces["sc2d"])

    def test_denominator_option_plumbed(self, small_traces):
        cur = StateSampler(nprocs=4, migration_denominator="current")
        prev = StateSampler(nprocs=4, migration_denominator="previous")
        a = cur.penalty_series(small_traces["sc2d"]).beta_m
        b = prev.penalty_series(small_traces["sc2d"]).beta_m
        assert not np.allclose(a, b)  # sc2d grid size changes, so they differ

    def test_invocation_interval_scales_with_workload(self):
        sampler = StateSampler(nprocs=4)
        assert sampler.invocation_interval(2000) > sampler.invocation_interval(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            StateSampler(steps_per_snapshot=0)
        with pytest.raises(ValueError):
            StateSampler(nprocs=0)
