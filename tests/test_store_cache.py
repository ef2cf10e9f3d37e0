"""The store's zero-copy read plane: mmap loads, LRU cache, invalidation.

``ResultStore.get_result``/``get_trace`` keep a per-process LRU of
decoded entries (``REPRO_STORE_CACHE``) in front of lazy memory-mapped
``series.npz`` loads (``REPRO_STORE_MMAP``).  The invariants under test:

* a warm read is a cache hit even through a *fresh* store instance
  (the cache is per-process, keyed by root + key);
* mmap-assisted cold loads are value- and dtype-identical to eagerly
  loaded ones; returned arrays are materialized stable snapshots, so a
  later in-place rewrite of the entry never mutates results already
  handed out;
* every hit re-validates the entry's stat signature, so on-disk
  overwrites and corruption are observed exactly like cold reads;
* eviction respects the configured capacity, and mtime recency touches
  are throttled to once per entry per interval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ResultStore, RunResult, sim_spec, trace_spec
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


def test_warm_read_hits_cache_across_store_instances(tmp_path):
    result = _make_result()
    ResultStore(tmp_path).put_result(result)
    first = ResultStore(tmp_path).get_result(result.key)
    second = ResultStore(tmp_path).get_result(result.key)
    stats = read_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1, stats
    assert first is not None and second is not None
    for name, want in result.arrays.items():
        np.testing.assert_array_equal(np.asarray(first.arrays[name]), want)
        np.testing.assert_array_equal(np.asarray(second.arrays[name]), want)
        assert first.arrays[name].dtype == want.dtype
        assert second.arrays[name].dtype == want.dtype


def test_mmap_arrays_match_eager_load(tmp_path, monkeypatch):
    result = _make_result()
    ResultStore(tmp_path).put_result(result)
    monkeypatch.delenv("REPRO_STORE_MMAP", raising=False)
    mapped = ResultStore(tmp_path).get_result(result.key)
    assert read_cache_stats()["mmap_loads"] == 1, (
        "mmap path never engaged on an uncompressed npz"
    )
    # Returned arrays are materialized snapshots, never live mappings.
    assert not any(
        isinstance(a, np.memmap) for a in mapped.arrays.values()
    )
    clear_read_cache()
    monkeypatch.setenv("REPRO_STORE_MMAP", "off")
    eager = ResultStore(tmp_path).get_result(result.key)
    assert read_cache_stats()["mmap_loads"] == 1  # the eager load adds none
    for name in result.arrays:
        assert not isinstance(eager.arrays[name], np.memmap)
        np.testing.assert_array_equal(
            np.asarray(mapped.arrays[name]), eager.arrays[name]
        )
        assert mapped.arrays[name].dtype == eager.arrays[name].dtype


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
    monkeypatch.setenv("REPRO_STORE_CACHE", "2")
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
    monkeypatch.setenv("REPRO_STORE_CACHE", "0")
    result = _make_result()
    store = ResultStore(tmp_path)
    store.put_result(result)
    assert store.get_result(result.key) is not None
    assert store.get_result(result.key) is not None
    assert read_cache_stats()["hits"] == 0


def test_bad_env_values_raise(tmp_path, monkeypatch):
    result = _make_result()
    store = ResultStore(tmp_path)
    store.put_result(result)
    clear_read_cache()
    monkeypatch.setenv("REPRO_STORE_CACHE", "many")
    with pytest.raises(ValueError):
        store.get_result(result.key)
    monkeypatch.setenv("REPRO_STORE_CACHE", "64")
    monkeypatch.setenv("REPRO_STORE_MMAP", "sometimes")
    with pytest.raises(ValueError):
        store.get_result(result.key)


def test_trace_reads_share_one_decoded_object(tmp_path, small_traces):
    trace = small_traces["tp2d"]
    spec = trace_spec("tp2d", "small")
    store = ResultStore(tmp_path)
    store.put_trace(spec, trace, {"nsteps": len(trace)})
    t1 = ResultStore(tmp_path).get_trace(spec.key())
    t2 = ResultStore(tmp_path).get_trace(spec.key())
    stats = read_cache_stats()
    assert t1 is not None and t2 is t1, "trace hit should share the object"
    assert stats["misses"] == 1 and stats["hits"] == 1, stats


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
