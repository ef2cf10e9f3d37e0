"""The persistent pair-index reuse layer and its counters.

Each owner map caches one :class:`~repro.geometry.PairIndex` that every
kernel query against the map shares within a simulator step.  The tests
assert that the batched overlay/subtract engine the reuse mode selects
is bit-identical to the sequential per-box sweep, that the layer
actually engages on a paper trace (``index_reuses`` moves), that
``REPRO_PAIR_REUSE=off`` restores the per-query path, and that both
modes produce identical step metrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.geometry import (
    pair_index_forced,
    pair_reuse_forced,
    pair_reuse_mode,
)
from repro.simulator import TraceSimulator
from repro.telemetry import counter_deltas

# ---------------------------------------------------------------------------
# the batched overlay/subtract engine vs the sequential Box sweep


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_subtract_matches_sequential_sweep(ndim, data):
    """Reuse-on overlay/subtract is bit-identical to the per-box loop.

    Not just the same region: the batched engine must emit the *same
    fragment rows in the same order*, because partitioners consume the
    overlay output structurally.
    """
    from repro.geometry import overlay_corners, subtract_corners
    from strategies import disjoint_boxlists

    top_boxes = data.draw(disjoint_boxlists(max_boxes=6, ndim=ndim))
    bottom_boxes = data.draw(disjoint_boxlists(max_boxes=6, ndim=ndim))
    from repro.geometry import box_corners

    top = box_corners(top_boxes, ndim)
    bottom = box_corners(bottom_boxes, ndim)
    top_ranks = np.arange(top.shape[0], dtype=np.int32) % 3
    bottom_ranks = np.arange(bottom.shape[0], dtype=np.int32) % 3
    with pair_reuse_forced("auto"):
        c_auto, r_auto = overlay_corners(top, top_ranks, bottom, bottom_ranks)
        s_auto = subtract_corners(bottom, top)
    with pair_reuse_forced("off"):
        c_off, r_off = overlay_corners(top, top_ranks, bottom, bottom_ranks)
        s_off = subtract_corners(bottom, top)
    np.testing.assert_array_equal(c_auto, c_off)
    np.testing.assert_array_equal(r_auto, r_off)
    assert r_auto.dtype == r_off.dtype
    np.testing.assert_array_equal(s_auto, s_off)


# ---------------------------------------------------------------------------
# reuse-mode plumbing


def test_reuse_mode_forced_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_PAIR_REUSE", raising=False)
    assert pair_reuse_mode() == "auto"
    monkeypatch.setenv("REPRO_PAIR_REUSE", "off")
    assert pair_reuse_mode() == "off"
    with pair_reuse_forced("auto"):
        assert pair_reuse_mode() == "auto"
    assert pair_reuse_mode() == "off"
    monkeypatch.setenv("REPRO_PAIR_REUSE", "bogus")
    with pytest.raises(ValueError):
        pair_reuse_mode()


def test_reuse_registry_kind():
    from repro.registry import registry

    assert sorted(registry("pair-reuse")) == ["auto", "off"]


def test_owner_map_pair_index_respects_reuse_mode(simple_hierarchy):
    from repro.geometry import OwnerMap

    corners = np.asarray(
        [[0, 0, 8, 8], [8, 0, 16, 8], [0, 8, 16, 16]], dtype=np.int64
    )
    ranks = np.asarray([0, 1, 2], dtype=np.int32)
    m = OwnerMap((16, 16), corners, ranks)
    with pair_index_forced("grid"):
        with pair_reuse_forced("off"):
            assert m.pair_index() is None
        with pair_reuse_forced("auto"):
            index = m.pair_index()
            assert index is not None and index.indexes(m.corners)
            assert m.pair_index() is index  # cached


# ---------------------------------------------------------------------------
# the layer engages on a real trace, without changing a single number


@pytest.fixture(scope="module")
def _small_replay():
    trace = paper_trace("tp2d", "small")
    part = create("partitioner", "nature+fable")
    return trace, part


def test_reuse_engages_on_paper_trace(_small_replay):
    trace, part = _small_replay
    sim = TraceSimulator()
    with pair_index_forced("grid"), pair_reuse_forced("auto"):
        with counter_deltas() as counters:
            result_on = sim.run(trace, part, 8)
    assert counters["repro_pair_index_builds_total"] > 0
    assert counters["repro_pair_index_reuses_total"] > 0, (
        "persistent indexes never reused"
    )
    with pair_index_forced("grid"), pair_reuse_forced("off"):
        with counter_deltas() as off_counters:
            result_off = sim.run(trace, part, 8)
    assert off_counters["repro_pair_index_builds_total"] == 0
    assert off_counters["repro_pair_index_reuses_total"] == 0
    assert len(result_on.steps) == len(result_off.steps)
    for s_on, s_off in zip(result_on.steps, result_off.steps):
        assert s_on == s_off, "reuse layer changed a step metric"
