"""End-to-end integration tests: kernels -> traces -> model + simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import pearson
from repro.meta import MetaScheduler
from repro.model import StateSampler, migration_penalty
from repro.partition import NaturePlusFable, StickyRepartitioner, DomainSfcPartitioner
from repro.simulator import TraceSimulator, migration_cells


class TestEndToEnd:
    @pytest.mark.parametrize("name", ["tp2d", "bl2d", "sc2d", "rm2d"])
    def test_full_pipeline(self, small_traces, name):
        """Trace -> model penalties and simulator metrics, all consistent."""
        trace = small_traces[name]
        sampler = StateSampler(nprocs=4)
        model = sampler.penalty_series(trace)
        sim = TraceSimulator()
        actual = sim.run(trace, NaturePlusFable(), 4)
        n = len(trace)
        assert model.beta_m.shape == (n,)
        assert len(actual.steps) == n
        # The model's normalization and the simulator's agree on sizes.
        for snap, step in zip(trace, actual.steps):
            assert step.ncells == snap.hierarchy.ncells
            assert step.workload == snap.hierarchy.workload

    def test_beta_m_matches_paper_formula_on_trace(self, small_traces):
        """Recompute beta_m independently via raw box intersections."""
        from repro.geometry import intersection_volume

        trace = small_traces["sc2d"]
        sampler = StateSampler(nprocs=4)
        series = sampler.penalty_series(trace).beta_m
        for i, (prev, cur) in enumerate(zip(trace.steps, trace.steps[1:])):
            hp, hc = prev.hierarchy, cur.hierarchy
            overlap = 0
            for l in range(min(hp.nlevels, hc.nlevels)):
                overlap += intersection_volume(
                    hp.levels[l].patches.boxes, hc.levels[l].patches.boxes
                )
            expected = 1.0 - overlap / hc.ncells
            assert series[i + 1] == pytest.approx(expected)

    def test_sticky_reduces_measured_migration_everywhere(self, small_traces):
        """Trade-off 3 in action: the sticky wrapper cuts migration on all
        four kernels (what the meta-partitioner exploits when beta_m is
        high)."""
        sim = TraceSimulator()
        for name, trace in small_traces.items():
            fresh = sim.run(trace, NaturePlusFable(), 4)
            sticky = sim.run(
                trace, StickyRepartitioner(NaturePlusFable(), migration_budget=0.1), 4
            )
            assert (
                sticky.series("migration_cells").sum()
                <= fresh.series("migration_cells").sum()
            ), name

    def test_migration_penalty_nonnegative_correlation(self, small_traces):
        """On the oscillatory kernels the penalty must co-move with the
        measured migration even at test scale."""
        sim = TraceSimulator()
        sampler = StateSampler(nprocs=4)
        for name in ("sc2d",):
            trace = small_traces[name]
            beta_m = sampler.penalty_series(trace).beta_m[1:]
            actual = sim.run(trace, NaturePlusFable(), 4).series(
                "relative_migration"
            )[1:]
            if beta_m.std() > 0 and actual.std() > 0:
                assert pearson(beta_m, actual) > -0.2, name

    def test_meta_scheduler_never_catastrophic(self, small_traces):
        """The dynamic PAC should stay within 2x of the static default."""
        sim = TraceSimulator()
        for name, trace in small_traces.items():
            static = sim.run(trace, NaturePlusFable(), 4).total_execution_seconds
            sched = MetaScheduler(sampler=StateSampler(nprocs=4))
            dynamic = sim.run_scheduled(trace, sched, 4).total_execution_seconds
            assert dynamic <= 2.0 * static, name

    def test_trace_roundtrip_preserves_model_outputs(self, tmp_path, small_traces):
        """Serialization must not change any penalty value."""
        trace = small_traces["rm2d"]
        path = tmp_path / "rm2d.json.gz"
        trace.save(path)
        from repro.trace import Trace

        back = Trace.load(path)
        sampler = StateSampler(nprocs=4)
        a = sampler.penalty_series(trace)
        b = sampler.penalty_series(back)
        np.testing.assert_allclose(a.beta_m, b.beta_m)
        np.testing.assert_allclose(a.beta_c, b.beta_c)
        np.testing.assert_allclose(a.beta_l, b.beta_l)

    def test_symmetric_migration_definitions(self, small_traces):
        """migration_penalty(a, b) == 0 iff hierarchies cover identically;
        simulator migration is 0 when partitions are identical."""
        trace = small_traces["bl2d"]
        h = trace[0].hierarchy
        assert migration_penalty(h, h) == 0.0
        part = DomainSfcPartitioner()
        res = part.partition(h, 4)
        assert migration_cells(res, res) == 0
