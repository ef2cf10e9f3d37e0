"""The persistent pair-index reuse layer: delta updates and counters.

The temporal-coherence fast path rests on one invariant: a
:class:`~repro.geometry.PairIndex` that was *delta-updated* from a
previous step's index must answer every query with the same exact pair
set as an index built from scratch — and both must be supersets of the
true overlapping pairs, because downstream kernels do exact arithmetic
on whatever candidates come back.  The property suite drives random
add/remove sequences (1-D through 4-D, including full replacement and
no-op diffs) through :meth:`PairIndex.updated_to` and checks that
invariant against a brute-force reference.

The simulator-facing tests assert the layer actually engages on a paper
trace (``index_reuses``/``delta_updates`` counters move), that
``REPRO_PAIR_REUSE=off`` restores the per-query path, and that both
modes produce identical step metrics with the dense cross-check on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.geometry import (
    PairIndex,
    pair_index_forced,
    pair_reuse_forced,
    pair_reuse_mode,
)
from repro.simulator import TraceSimulator
from repro.telemetry import counter_deltas

# ---------------------------------------------------------------------------
# strategies


@st.composite
def corner_arrays(draw, ndim: int, max_boxes: int = 14, max_coord: int = 24):
    """Unique ``(n, 2*ndim)`` corner rows with positive extent per axis."""
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(n):
        lo = tuple(
            draw(st.integers(min_value=0, max_value=max_coord - 1))
            for _ in range(ndim)
        )
        hi = tuple(
            l + draw(st.integers(min_value=1, max_value=6)) for l in lo
        )
        row = lo + hi
        if row in seen:
            continue
        seen.add(row)
        rows.append(row)
    if not rows:
        return np.empty((0, 2 * ndim), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


@st.composite
def update_sequences(draw, ndim: int):
    """``(old, new)`` corner arrays related by a random add/remove diff.

    Covers the adversarial corners: empty old, empty new, pure removal,
    pure addition, full replacement and the no-op diff (``new`` equal in
    content but a distinct array object).
    """
    old = draw(corner_arrays(ndim))
    keep_mask = draw(
        st.lists(
            st.booleans(), min_size=old.shape[0], max_size=old.shape[0]
        )
    )
    kept = old[np.asarray(keep_mask, dtype=bool)] if old.size else old
    added = draw(corner_arrays(ndim))
    if kept.size and added.size:
        kept_keys = {tuple(r) for r in kept.tolist()}
        fresh = [r for r in added.tolist() if tuple(r) not in kept_keys]
        added = (
            np.asarray(fresh, dtype=np.int64).reshape(-1, 2 * ndim)
            if fresh
            else np.empty((0, 2 * ndim), dtype=np.int64)
        )
    new = np.concatenate([kept, added], axis=0)
    if draw(st.booleans()):
        new = np.asarray(draw(st.permutations(new.tolist())), dtype=np.int64)
        new = new.reshape(-1, 2 * ndim)
    return old, new


def _exact_pairs(a: np.ndarray, b: np.ndarray, closed: bool) -> set:
    """Brute-force reference: all ``(ai, bj)`` whose boxes meet."""
    ndim = a.shape[1] // 2
    out = set()
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            lo = np.maximum(a[i, :ndim], b[j, :ndim])
            hi = np.minimum(a[i, ndim:], b[j, ndim:])
            meets = bool((lo <= hi).all()) if closed else bool((lo < hi).all())
            if meets:
                out.add((i, j))
    return out


def _query_pairs(index: PairIndex, q: np.ndarray, closed: bool) -> set | None:
    hit = index.query(q, closed)
    if hit is None:
        return None
    qi, xj = hit
    return set(zip(qi.tolist(), xj.tolist()))


def _filter_exact(
    pairs: set, q: np.ndarray, x: np.ndarray, closed: bool
) -> set:
    """Reduce a candidate superset to the exactly-meeting pairs."""
    ndim = q.shape[1] // 2
    out = set()
    for i, j in pairs:
        lo = np.maximum(q[i, :ndim], x[j, :ndim])
        hi = np.minimum(q[i, ndim:], x[j, ndim:])
        meets = bool((lo <= hi).all()) if closed else bool((lo < hi).all())
        if meets:
            out.add((i, j))
    return out


# ---------------------------------------------------------------------------
# the delta == rebuild property


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["grid", "sweep"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_delta_update_matches_fresh_rebuild(ndim, kind, data):
    """A delta-updated index answers like a from-scratch rebuild."""
    old, new = data.draw(update_sequences(ndim))
    q = data.draw(corner_arrays(ndim, max_boxes=8))
    shape = tuple([32] * ndim)
    with pair_index_forced(kind):
        base = PairIndex(shape, old)
        delta = base.updated_to(new)
        fresh = PairIndex(shape, new)
    assert delta.nboxes == new.shape[0]
    assert delta.indexes(new)
    assert not delta.indexes(old) or new is old
    for closed in (False, True):
        want = _exact_pairs(q, new, closed)
        for index in (delta, fresh):
            got = _query_pairs(index, q, closed)
            if got is None:  # probe declined: callers fall back per-query
                continue
            assert got >= want, f"candidates miss exact pairs (closed={closed})"
            assert _filter_exact(got, q, new, closed) == want


@pytest.mark.parametrize("ndim", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_full_replacement_rebuilds(ndim, data):
    """100% churn must fall back to a full rebuild, and still be right."""
    old = data.draw(corner_arrays(ndim, max_boxes=8))
    new = data.draw(corner_arrays(ndim, max_boxes=8))
    if old.size and new.size:
        old_keys = {tuple(r) for r in old.tolist()}
        fresh_rows = [r for r in new.tolist() if tuple(r) not in old_keys]
        new = (
            np.asarray(fresh_rows, dtype=np.int64).reshape(-1, 2 * ndim)
            if fresh_rows
            else np.empty((0, 2 * ndim), dtype=np.int64)
        )
    with pair_index_forced("grid"):
        base = PairIndex(tuple([32] * ndim), old)
        with counter_deltas() as counters:
            updated = base.updated_to(new)
    if old.shape[0] and new.shape[0]:
        # zero shared rows => churn above threshold => rebuild, no delta
        assert counters["repro_pair_delta_updates_total"] == 0
        assert counters["repro_pair_index_builds_total"] >= 1
    q = data.draw(corner_arrays(ndim, max_boxes=6))
    got = _query_pairs(updated, q, False)
    if got is not None:
        want = _exact_pairs(q, new, False)
        assert got >= want
        assert _filter_exact(got, q, new, False) == want


@pytest.mark.parametrize("kind", ["grid", "sweep"])
def test_noop_diff_is_a_delta(kind):
    """Identical content in a new array object takes the delta path."""
    corners = np.asarray(
        [[0, 0, 4, 4], [4, 0, 8, 3], [0, 4, 3, 8], [5, 5, 9, 9]],
        dtype=np.int64,
    )
    with pair_index_forced(kind):
        base = PairIndex((16, 16), corners)
        clone = corners.copy()
        with counter_deltas() as counters:
            updated = base.updated_to(clone)
    assert counters["repro_pair_delta_updates_total"] == 1
    assert counters["repro_pair_index_builds_total"] == 0
    assert updated.indexes(clone) and not updated.indexes(corners)
    q = np.asarray([[1, 1, 6, 6]], dtype=np.int64)
    assert _query_pairs(updated, q, False) == _query_pairs(base, q, False)


def test_chained_delta_updates_stay_correct():
    """Indexes surviving several steps of churn keep answering exactly."""
    rng = np.random.default_rng(7)
    shape = (64, 64)
    corners = np.asarray(
        [[x, y, x + 4, y + 4] for x in range(0, 32, 8) for y in range(0, 32, 8)],
        dtype=np.int64,
    )
    with pair_index_forced("grid"):
        index = PairIndex(shape, corners)
        for step in range(6):
            keep = rng.random(corners.shape[0]) > 0.3
            kept = corners[keep]
            n_add = int(rng.integers(0, 5))
            added = []
            seen = {tuple(r) for r in kept.tolist()}
            while len(added) < n_add:
                x, y = rng.integers(0, 58, size=2)
                row = (int(x), int(y), int(x) + 5, int(y) + 5)
                if row not in seen:
                    seen.add(row)
                    added.append(row)
            corners = np.concatenate(
                [kept, np.asarray(added, dtype=np.int64).reshape(-1, 4)]
            )
            index = index.updated_to(corners)
            assert index.indexes(corners)
            q = np.asarray([[0, 0, 40, 40], [20, 20, 26, 26]], dtype=np.int64)
            got = _query_pairs(index, q, False)
            want = _exact_pairs(q, corners, False)
            assert got is None or (
                got >= want and _filter_exact(got, q, corners, False) == want
            )


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
    assert counters["repro_pair_delta_updates_total"] > 0, (
        "no step-to-step delta updates"
    )
    with pair_index_forced("grid"), pair_reuse_forced("off"):
        with counter_deltas() as off_counters:
            result_off = sim.run(trace, part, 8)
    assert off_counters["repro_pair_index_builds_total"] == 0
    assert off_counters["repro_pair_index_reuses_total"] == 0
    assert off_counters["repro_pair_delta_updates_total"] == 0
    assert len(result_on.steps) == len(result_off.steps)
    for s_on, s_off in zip(result_on.steps, result_off.steps):
        assert s_on == s_off, "reuse layer changed a step metric"


def test_cross_check_passes_with_reuse(_small_replay):
    trace, part = _small_replay
    sim = TraceSimulator(cross_check=True)
    with pair_index_forced("grid"), pair_reuse_forced("auto"):
        result = sim.run(trace, part, 8)
    assert len(result.steps) == len(trace)
