"""Tests for the meta-partitioner and the ArMADA baseline."""

from __future__ import annotations

import pytest

from repro.engine import create, registry
from repro.experiments import paper_trace
from repro.experiments.workloads import app_names
from repro.meta import (
    ArmadaClassifier,
    MetaPartitioner,
    MetaPolicy,
    MetaScheduler,
    armada_octant_table,
)
from repro.model import ClassificationPoint, StateSampler
from repro.partition import (
    DomainSfcPartitioner,
    NaturePlusFable,
    PatchBasedPartitioner,
    StickyRepartitioner,
)
from repro.simulator import TraceSimulator


class TestMetaPolicy:
    def test_defaults_valid(self):
        MetaPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim1_low": 0.8, "dim1_high": 0.2},
            {"dim2_speed": 1.5},
            {"dim3_sticky": -0.1},
            {"sticky_tolerance": 0.9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MetaPolicy(**kwargs)


class TestMetaPartitionerRules:
    def select(self, dim1, dim2, dim3):
        return MetaPartitioner().select(ClassificationPoint(dim1, dim2, dim3))

    def test_comm_dominated_gets_domain_based(self):
        p = self.select(0.2, 0.2, 0.1)
        assert isinstance(p, DomainSfcPartitioner)
        assert p.curve == "hilbert"  # time is ample -> quality curve

    def test_comm_dominated_fast_gets_morton(self):
        p = self.select(0.2, 0.9, 0.1)
        assert isinstance(p, DomainSfcPartitioner)
        assert p.curve == "morton"
        assert not p.exact

    def test_balance_dominated_gets_patch_based(self):
        p = self.select(0.97, 0.2, 0.1)
        assert isinstance(p, PatchBasedPartitioner)
        assert p.strategy == "lpt"

    def test_middle_gets_hybrid(self):
        p = self.select(0.93, 0.9, 0.1)
        assert isinstance(p, NaturePlusFable)

    def test_high_migration_wraps_sticky(self):
        p = self.select(0.93, 0.5, 0.9)
        assert isinstance(p, StickyRepartitioner)
        # Budget shrinks as dim3 grows.
        q = self.select(0.93, 0.5, 0.5)
        assert isinstance(q, StickyRepartitioner)
        assert p.migration_budget <= q.migration_budget

    def test_sticky_can_be_gated_off(self):
        meta = MetaPartitioner()
        point = ClassificationPoint(0.93, 0.5, 0.9)
        p = meta.select(point, sticky_ok=False)
        assert not isinstance(p, StickyRepartitioner)

    def test_low_migration_unwrapped(self):
        p = self.select(0.93, 0.5, 0.1)
        assert not isinstance(p, StickyRepartitioner)


class TestMetaScheduler:
    def test_classify_produces_history(self, small_traces):
        sched = MetaScheduler(sampler=StateSampler(nprocs=4))
        for snap in small_traces["sc2d"]:
            sched.classify(snap.hierarchy)
        assert len(sched.history) == len(small_traces["sc2d"])
        assert sched.history[0].dim3 == 0.0  # no predecessor

    @pytest.mark.parametrize("machine", tuple(registry("machine")))
    def test_matches_batch_sampler(self, machine):
        """Incremental classification equals the batch StateSampler
        exactly, on every registered workload's ``small`` trace."""
        model = create("machine", machine)
        for app in app_names():
            trace = paper_trace(app, "small")
            batch = StateSampler(machine=model).sample_trace(trace)
            sched = MetaScheduler(sampler=StateSampler(machine=model))
            points = [sched.classify(snap.hierarchy) for snap in trace]
            assert points == [sample.point for sample in batch], app

    def test_full_scheduled_run(self, small_traces):
        sim = TraceSimulator()
        sched = MetaScheduler(sampler=StateSampler(nprocs=4))
        res = sim.run_scheduled(small_traces["sc2d"], sched, 4)
        assert len(res.steps) == len(small_traces["sc2d"])
        assert res.total_execution_seconds > 0


class TestArmada:
    def test_octant_table_covers_all(self):
        for octant in range(8):
            p = armada_octant_table(octant)
            assert hasattr(p, "partition")

    def test_octant_table_validation(self):
        with pytest.raises(ValueError):
            armada_octant_table(8)

    def test_comm_dominated_bit_maps_to_domain_based(self):
        p = armada_octant_table(2)
        assert isinstance(p, DomainSfcPartitioner)

    def test_localized_computation_maps_to_patch_based(self):
        p = armada_octant_table(1)
        assert isinstance(p, PatchBasedPartitioner)

    def test_dynamic_bit_wraps_sticky(self):
        p = armada_octant_table(4)
        assert isinstance(p, StickyRepartitioner)

    def test_classifier_stateful(self, small_traces):
        clf = ArmadaClassifier()
        octants = [clf.classify(s.hierarchy) for s in small_traces["sc2d"]]
        assert len(octants) == len(small_traces["sc2d"])
        assert all(0 <= o < 8 for o in octants)
        assert clf.history == octants

    def test_hysteresis_dampens_flips(self, small_traces):
        """Higher hysteresis never produces more octant transitions."""
        def transitions(h):
            clf = ArmadaClassifier(hysteresis=h)
            octants = [clf.classify(s.hierarchy) for s in small_traces["sc2d"]]
            return sum(a != b for a, b in zip(octants, octants[1:]))

        assert transitions(0.5) <= transitions(0.0)

    def test_schedule_interface(self, small_traces):
        sim = TraceSimulator()
        res = sim.run_scheduled(small_traces["bl2d"], ArmadaClassifier(), 4)
        assert len(res.steps) == len(small_traces["bl2d"])

    def test_hysteresis_validation(self):
        with pytest.raises(ValueError):
            ArmadaClassifier(hysteresis=-0.5)
