"""Tests for the machine model and the trace-driven execution simulator."""

from __future__ import annotations

import pytest

from repro.partition import (
    DomainSfcPartitioner,
    NaturePlusFable,
    PatchBasedPartitioner,
)
from repro.simulator import MachineModel, TraceSimulator


class TestMachineModel:
    def test_defaults_positive(self):
        m = MachineModel()
        assert m.compute_seconds(1000) > 0
        assert m.transfer_seconds(1000, 2) > 0

    def test_transfer_includes_latency(self):
        m = MachineModel()
        assert m.transfer_seconds(0, 1) == pytest.approx(m.latency_seconds)

    def test_faster_network(self):
        m = MachineModel()
        f = m.faster_network(10)
        assert f.bandwidth_bytes_per_s == pytest.approx(
            10 * m.bandwidth_bytes_per_s
        )
        assert f.transfer_seconds(1e6) < m.transfer_seconds(1e6)

    @pytest.mark.parametrize("field", [
        "seconds_per_cell_step", "bytes_per_cell", "bandwidth_bytes_per_s",
        "latency_seconds", "sync_seconds",
    ])
    def test_validation(self, field):
        with pytest.raises(ValueError):
            MachineModel(**{field: 0.0})

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            MachineModel().faster_network(0)


class TestTraceSimulator:
    def test_run_produces_metrics_per_snapshot(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["bl2d"], NaturePlusFable(), 4)
        assert len(res.steps) == len(small_traces["bl2d"])
        assert res.nprocs == 4
        assert res.trace_name == "bl2d"

    def test_first_step_no_migration(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["tp2d"], NaturePlusFable(), 4)
        assert res.steps[0].migration_cells == 0
        assert res.steps[0].relative_migration == 0.0

    def test_metrics_ranges(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["sc2d"], DomainSfcPartitioner(), 4)
        for s in res.steps:
            assert s.load_imbalance >= 1.0
            assert s.relative_comm >= 0.0
            assert s.relative_migration >= 0.0
            assert s.total_seconds > 0.0
            assert s.ncells > 0

    def test_single_proc_no_comm_no_migration(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["sc2d"], NaturePlusFable(), 1)
        for s in res.steps:
            assert s.comm_cells == 0
            assert s.interlevel_cells == 0
            assert s.migration_cells == 0
            assert s.load_imbalance == pytest.approx(1.0)

    def test_domain_based_zero_interlevel(self, small_traces):
        """Strictly domain-based partitioning eliminates inter-level comm."""
        sim = TraceSimulator()
        res = sim.run(small_traces["sc2d"], DomainSfcPartitioner(unit_size=1), 4)
        for s in res.steps:
            assert s.interlevel_cells == 0

    def test_patch_based_has_interlevel(self):
        """Per-level patch distribution splits parents from children."""
        from repro.geometry import Box
        from repro.hierarchy import GridHierarchy, PatchLevel

        domain = Box((0, 0), (8, 8))
        h = GridHierarchy(
            domain,
            [
                PatchLevel(0, [domain], ratio=1),
                PatchLevel(
                    1,
                    [Box((0, 0), (8, 8)), Box((8, 8), (16, 16))],
                    ratio=2,
                ),
            ],
        )
        res = PatchBasedPartitioner(strategy="round-robin").partition(h, 2)
        sim = TraceSimulator()
        step = sim.measure_step(h, res, None, None)
        assert step.interlevel_cells > 0

    def test_series_extraction(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["bl2d"], NaturePlusFable(), 4)
        arr = res.series("relative_comm")
        assert arr.shape == (len(res.steps),)
        assert (arr >= 0).all()

    def test_total_execution_time_sums(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["bl2d"], NaturePlusFable(), 4)
        assert res.total_execution_seconds == pytest.approx(
            sum(s.total_seconds for s in res.steps)
        )

    def test_summary_keys(self, small_traces):
        sim = TraceSimulator()
        res = sim.run(small_traces["bl2d"], NaturePlusFable(), 4)
        summary = res.summary()
        for key in (
            "trace",
            "partitioner",
            "nprocs",
            "mean_imbalance",
            "mean_relative_comm",
            "mean_relative_migration",
            "total_seconds",
        ):
            assert key in summary

    def test_faster_network_reduces_total_time(self, small_traces):
        slow = TraceSimulator(machine=MachineModel())
        fast = TraceSimulator(machine=MachineModel().faster_network(100))
        p = NaturePlusFable()
        t_slow = slow.run(small_traces["sc2d"], p, 4).total_execution_seconds
        t_fast = fast.run(small_traces["sc2d"], p, 4).total_execution_seconds
        assert t_fast <= t_slow

    def test_run_scheduled_switches_partitioners(self, small_traces):
        sim = TraceSimulator()
        picks = []

        def schedule(i, snap, prev):
            p = NaturePlusFable() if i % 2 == 0 else DomainSfcPartitioner()
            picks.append(p.name)
            return p

        res = sim.run_scheduled(small_traces["bl2d"], schedule, 4)
        assert len(res.steps) == len(small_traces["bl2d"])
        assert "nature+fable" in picks and "domain-sfc" in picks
        assert res.partitioner["name"] == "scheduled"

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TraceSimulator(ghost_width=-1)
        with pytest.raises(ValueError):
            TraceSimulator(steps_per_snapshot=0)

    def test_nprocs_validation(self, small_traces):
        with pytest.raises(ValueError):
            TraceSimulator().run(small_traces["bl2d"], NaturePlusFable(), 0)
