"""The store's read plane: cold loads, LRU cache, invalidation.

``ResultStore.get_result``/``get_trace`` keep a per-process LRU of
decoded entries (``READ_CACHE_ENTRIES``) in front of ``np.load`` reads
of ``series.npz``.  That a warm read hits the cache even through a
*fresh* store instance, and agrees with a cold read, is tested with the
other fast paths in ``tests/test_oracles.py``.  The invariants under
test here:

* cold loads return read-only in-memory arrays, value- and
  dtype-identical to what was published — stable snapshots, so a later
  in-place rewrite of the entry never mutates results already handed
  out;
* every hit re-validates the entry's stat signature, so on-disk
  overwrites and corruption are observed exactly like cold reads;
* eviction respects the configured capacity, and mtime recency touches
  are throttled to once per entry per interval;
* a published trace seeds the cache, so the process that generated it
  replays it without decoding it from disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ResultStore, RunResult, sim_spec, trace_spec
from repro.engine import store as store_module
from repro.engine.store import clear_read_cache, read_cache_stats
from repro.telemetry import reset_metrics


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts with an empty read cache and zeroed counters."""
    clear_read_cache()
    reset_metrics()
    yield
    clear_read_cache()


def _make_result(nprocs: int = 4, value: float = 1.0) -> RunResult:
    spec = sim_spec(
        app="tp2d", scale="small", partitioner="nature+fable", nprocs=nprocs
    )
    arrays = {
        "load_imbalance": np.linspace(value, value + 1.0, 7, dtype=np.float64),
        "step": np.arange(7, dtype=np.int32),
    }
    return RunResult(
        spec=spec, key=spec.key(), meta={"nsteps": 7}, arrays=arrays
    )


def test_cold_load_returns_frozen_snapshots(tmp_path):
    result = _make_result(value=1.0)
    store = ResultStore(tmp_path)
    store.put_result(result)
    loaded = ResultStore(tmp_path).get_result(result.key)
    assert read_cache_stats()["misses"] == 1
    for name, want in result.arrays.items():
        got = loaded.arrays[name]
        assert type(got) is np.ndarray and got.dtype == want.dtype
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    # Rewriting the entry in place never reaches arrays already handed out.
    store.put_result(_make_result(value=5.0), overwrite=True)
    assert loaded.arrays["load_imbalance"][0] == 1.0


def test_hit_revalidates_against_disk(tmp_path):
    result = _make_result()
    store = ResultStore(tmp_path)
    store.put_result(result)
    assert store.get_result(result.key) is not None  # populate the cache
    # Corrupt the series behind the cache's back: the next read must
    # observe the stat-signature mismatch, warn and miss — never serve
    # the stale record.
    series = store.entry_dir(result.key) / "series.npz"
    series.write_bytes(b"not a zipfile")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert ResultStore(tmp_path).get_result(result.key) is None
    assert read_cache_stats()["hits"] == 0


def test_overwrite_evicts_stale_record(tmp_path):
    store = ResultStore(tmp_path)
    store.put_result(_make_result(value=1.0))
    key = _make_result().key
    assert store.get_result(key).arrays["load_imbalance"][0] == 1.0
    store.put_result(_make_result(value=5.0), overwrite=True)
    warm = ResultStore(tmp_path).get_result(key)
    assert warm.arrays["load_imbalance"][0] == 5.0


def test_eviction_respects_capacity(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "READ_CACHE_ENTRIES", 2)
    store = ResultStore(tmp_path)
    keys = []
    for nprocs in (2, 4, 8):
        result = _make_result(nprocs=nprocs)
        store.put_result(result)
        keys.append(result.key)
    for key in keys:
        assert store.get_result(key) is not None
    stats = read_cache_stats()
    assert stats["misses"] == 3 and stats["evictions"] >= 1, stats
    # The oldest entry was evicted: re-reading it is another miss.
    assert store.get_result(keys[0]) is not None
    assert read_cache_stats()["misses"] == 4


def test_cache_disabled(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "READ_CACHE_ENTRIES", 0)
    result = _make_result()
    store = ResultStore(tmp_path)
    store.put_result(result)
    assert store.get_result(result.key) is not None
    assert store.get_result(result.key) is not None
    assert read_cache_stats()["hits"] == 0


def test_trace_reads_share_one_decoded_object(tmp_path, small_traces):
    trace = small_traces["tp2d"]
    spec = trace_spec("tp2d", "small")
    store = ResultStore(tmp_path)
    store.put_trace(spec, trace, {"nsteps": len(trace)})
    clear_read_cache()  # forget the published trace: decode it from disk
    t1 = ResultStore(tmp_path).get_trace(spec.key())
    t2 = ResultStore(tmp_path).get_trace(spec.key())
    stats = read_cache_stats()
    assert t1 is not None and t2 is t1, "trace hit should share the object"
    assert stats["misses"] == 1 and stats["hits"] == 1, stats


def test_published_trace_is_served_from_memory(tmp_path, small_traces):
    trace = small_traces["tp2d"]
    spec = trace_spec("tp2d", "small")
    ResultStore(tmp_path).put_trace(spec, trace, {"nsteps": len(trace)})
    assert ResultStore(tmp_path).get_trace(spec.key()) is trace
    stats = read_cache_stats()
    assert stats["misses"] == 0 and stats["hits"] == 1, stats


def test_touch_is_throttled(tmp_path):
    result = _make_result()
    store = ResultStore(tmp_path)
    store.put_result(result)
    assert store._touch(result.key) is True
    assert store._touch(result.key) is False  # within the interval
    clear_read_cache()  # resets the throttle memo too
    assert store._touch(result.key) is True


def test_remove_evicts_cached_entry(tmp_path):
    result = _make_result()
    store = ResultStore(tmp_path)
    store.put_result(result)
    assert store.get_result(result.key) is not None
    assert store.remove(result.key)
    assert ResultStore(tmp_path).get_result(result.key) is None
    assert read_cache_stats()["hits"] == 0
