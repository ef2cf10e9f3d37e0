"""End-to-end 3-D coverage: tp3d traces through the whole stack.

The acceptance bar of the dimension-generalization refactor: a 3-D trace
replays under the domain-SFC partitioner (both curves), Nature+Fable and
the ArMADA classifier schedule, with every distribution passing
:meth:`PartitionResult.validate` and the simulator producing finite,
sensible metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import TraceGenConfig, build_hierarchy, generate_trace, make_application
from repro.clustering import gradient_indicator
from repro.meta.armada import ArmadaClassifier
from repro.model import (
    communication_penalty,
    load_imbalance_penalty,
    migration_penalty,
)
from repro.partition import (
    DomainSfcPartitioner,
    NaturePlusFable,
    PatchBasedPartitioner,
    StickyRepartitioner,
)
from repro.simulator import TraceSimulator
from repro.trace import Trace


@pytest.fixture(scope="module")
def trace3d() -> Trace:
    cfg = TraceGenConfig(
        base_shape=(8, 8, 8), max_levels=3, nsteps=12, regrid_interval=4
    )
    return generate_trace(make_application("tp3d", shape=(32, 32, 32)), cfg)


class TestTrace3D:
    def test_hierarchies_are_3d_and_valid(self, trace3d):
        assert len(trace3d) == 4
        for snap in trace3d:
            assert snap.hierarchy.ndim == 3
            snap.hierarchy.validate()

    def test_refinement_happens(self, trace3d):
        assert all(snap.hierarchy.nlevels >= 2 for snap in trace3d)

    def test_json_roundtrip(self, trace3d):
        again = Trace.from_json(trace3d.to_json())
        assert [s.hierarchy for s in again] == [s.hierarchy for s in trace3d]

    def test_deterministic(self, trace3d):
        cfg = TraceGenConfig(
            base_shape=(8, 8, 8), max_levels=3, nsteps=12, regrid_interval=4
        )
        again = generate_trace(make_application("tp3d", shape=(32, 32, 32)), cfg)
        assert [s.hierarchy for s in again] == [s.hierarchy for s in trace3d]


PARTITIONERS = [
    DomainSfcPartitioner(curve="hilbert", unit_size=2),
    DomainSfcPartitioner(curve="morton", unit_size=2, exact=True),
    NaturePlusFable(),
    PatchBasedPartitioner(strategy="lpt"),
    StickyRepartitioner(DomainSfcPartitioner(curve="hilbert")),
]


@pytest.mark.parametrize("part", PARTITIONERS, ids=lambda p: repr(p.describe()))
class TestPartitioners3D:
    def test_replay_validates_every_step(self, trace3d, part):
        previous = None
        for snap in trace3d:
            result = part.partition(snap.hierarchy, 8, previous)
            result.validate(snap.hierarchy)
            previous = result

    def test_loads_cover_workload(self, trace3d, part):
        h = trace3d[-1].hierarchy
        result = part.partition(h, 8)
        assert result.loads(h).sum() == pytest.approx(h.workload)


class TestDomainSfc3D:
    def test_column_workloads_shape_and_total(self, trace3d):
        h = trace3d[-1].hierarchy
        weights = h.column_workloads(unit_size=2)
        assert weights.shape == (4, 4, 4)
        assert weights.sum() == pytest.approx(h.workload)

    def test_zero_interlevel_communication(self, trace3d):
        """Strictly domain-based: whole columns land on one rank."""
        sim = TraceSimulator()
        part = DomainSfcPartitioner(curve="hilbert")
        for snap in trace3d:
            result = part.partition(snap.hierarchy, 8)
            metrics = sim.measure_step(snap.hierarchy, result, None, None)
            assert metrics.interlevel_cells == 0


class TestSimulator3D:
    def test_static_replay_metrics_finite(self, trace3d):
        sim = TraceSimulator()
        res = sim.run(trace3d, DomainSfcPartitioner(), 8)
        assert len(res.steps) == len(trace3d)
        for s in res.steps:
            assert s.load_imbalance >= 1.0
            assert s.comm_cells >= 0
            assert np.isfinite(s.total_seconds) and s.total_seconds > 0

    def test_armada_schedule_replays(self, trace3d):
        """The ArMADA classifier drives a 3-D trace end to end."""
        sim = TraceSimulator()
        sched = ArmadaClassifier()
        res = sim.run_scheduled(trace3d, sched, 8)
        assert len(res.steps) == len(trace3d)
        assert len(sched.history) == len(trace3d)
        assert all(0 <= o < 8 for o in sched.history)

    def test_armada_validates_every_step(self, trace3d):
        sched = ArmadaClassifier()
        previous = None
        for i, snap in enumerate(trace3d):
            part = sched(i, snap, previous)
            result = part.partition(snap.hierarchy, 8, previous)
            result.validate(snap.hierarchy)
            previous = result


class TestPenalties3D:
    def test_migration_penalty_in_range(self, trace3d):
        values = [
            migration_penalty(a.hierarchy, b.hierarchy)
            for a, b in zip(trace3d, trace3d.steps[1:])
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert any(v > 0.0 for v in values)

    def test_ab_initio_penalties_in_range(self, trace3d):
        for snap in trace3d:
            bc = communication_penalty(snap.hierarchy, nprocs=8)
            bl = load_imbalance_penalty(snap.hierarchy)
            assert 0.0 <= bc <= 1.0
            assert 0.0 <= bl <= 1.0


class TestBuildHierarchy3D:
    def test_peak_refined_to_max_depth(self):
        cfg = TraceGenConfig(base_shape=(8, 8, 8), max_levels=3)
        ind = np.zeros((32, 32, 32))
        ind[14:18, 14:18, 14:18] = 1.0
        h = build_hierarchy(ind, cfg)
        assert h.nlevels == 3
        h.validate()

    def test_cluster_params_ndim_threaded(self):
        cfg = TraceGenConfig(base_shape=(8, 8, 8))
        assert cfg.cluster.ndim == 3

    def test_dimension_mismatch_rejected(self):
        cfg = TraceGenConfig(base_shape=(8, 8, 8))
        with pytest.raises(ValueError, match="indicator"):
            build_hierarchy(np.zeros((32, 32)), cfg)

    def test_nesting_random_fields(self):
        rng = np.random.default_rng(9)
        cfg = TraceGenConfig(base_shape=(8, 8, 8), max_levels=3)
        for _ in range(3):
            field = rng.random((32, 32, 32))
            for axis in range(3):
                field = 0.5 * (field + np.roll(field, 1, axis))
            h = build_hierarchy(gradient_indicator(field), cfg)
            h.validate()
