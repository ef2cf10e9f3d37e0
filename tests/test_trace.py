"""Tests for the trace substrate (snapshots, container, serialization)."""

from __future__ import annotations

import pytest

from repro.trace import Trace, TraceStep


class TestTraceStep:
    def test_json_roundtrip(self, simple_hierarchy):
        snap = TraceStep(step=4, time=0.25, hierarchy=simple_hierarchy)
        back = TraceStep.from_json(snap.to_json())
        assert back.step == 4
        assert back.time == 0.25
        assert back.hierarchy == simple_hierarchy


class TestTrace:
    def make_trace(self, simple_hierarchy, shifted_hierarchy) -> Trace:
        return Trace(
            "demo",
            [
                TraceStep(0, 0.0, simple_hierarchy),
                TraceStep(4, 0.5, shifted_hierarchy),
            ],
            metadata={"k": 1},
        )

    def test_container_protocol(self, simple_hierarchy, shifted_hierarchy):
        tr = self.make_trace(simple_hierarchy, shifted_hierarchy)
        assert len(tr) == 2
        assert tr[1].step == 4
        assert [s.step for s in tr] == [0, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Trace("demo", [])

    def test_non_monotone_rejected(self, simple_hierarchy):
        steps = [
            TraceStep(4, 0.0, simple_hierarchy),
            TraceStep(4, 0.1, simple_hierarchy),
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            Trace("demo", steps)

    def test_stats(self, simple_hierarchy, shifted_hierarchy):
        tr = self.make_trace(simple_hierarchy, shifted_hierarchy)
        stats = tr.stats()
        assert stats.nsteps == 2
        assert stats.min_cells == min(
            simple_hierarchy.ncells, shifted_hierarchy.ncells
        )
        assert stats.max_levels == 3
        assert stats.to_json()["nsteps"] == 2

    def test_json_roundtrip(self, simple_hierarchy, shifted_hierarchy):
        tr = self.make_trace(simple_hierarchy, shifted_hierarchy)
        back = Trace.from_json(tr.to_json())
        assert back.name == tr.name
        assert back.metadata == {"k": 1}
        assert back.hierarchies() == tr.hierarchies()

    def test_save_load_plain(self, tmp_path, simple_hierarchy, shifted_hierarchy):
        tr = self.make_trace(simple_hierarchy, shifted_hierarchy)
        path = tmp_path / "trace.json"
        tr.save(path)
        back = Trace.load(path)
        assert back.hierarchies() == tr.hierarchies()

    def test_save_load_gzip(self, tmp_path, simple_hierarchy, shifted_hierarchy):
        tr = self.make_trace(simple_hierarchy, shifted_hierarchy)
        path = tmp_path / "trace.json.gz"
        tr.save(path)
        back = Trace.load(path)
        assert back.hierarchies() == tr.hierarchies()
        # Compressed files should actually be gzip.
        import gzip

        with gzip.open(path) as fh:
            fh.read(16)

    def test_real_trace_roundtrip(self, tmp_path, small_traces):
        tr = small_traces["sc2d"]
        path = tmp_path / "sc2d.json.gz"
        tr.save(path)
        back = Trace.load(path)
        assert len(back) == len(tr)
        assert back.hierarchies() == tr.hierarchies()
