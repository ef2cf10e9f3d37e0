"""Content-addressed on-disk store for traces and experiment results.

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    <root>/objects/<key[:2]>/<key>/meta.json       spec + summary (JSON)
                                   series.npz      per-step arrays (sim/penalties)
                                   trace.json.gz   the trace artifact (trace)
    <root>/tmp/                                    staging for atomic publish

Every entry is keyed by the spec's content hash, so any two computations
that describe the same work — across figures, benchmarks, CLI calls and
worker processes — share one artifact.  Writes are atomic: an entry is
staged in ``tmp/`` and published with a single directory rename, so a
killed sweep never leaves a half-written entry, and concurrent writers of
the same key are benign (first rename wins, the loser is discarded).
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import time
import warnings
import zipfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

import numpy as np

from ..telemetry import metric_inc, metrics_registry, span
from ..telemetry.metrics import READ_CACHE_FIELDS
from ..trace import Trace
from .spec import RunResult, RunSpec

__all__ = [
    "ResultStore",
    "default_store",
    "DEFAULT_CACHE_DIR",
    "clear_read_cache",
    "read_cache_stats",
]

#: Exceptions a truncated / partially-deleted artifact can raise while
#: loading; anything in this set is a *corrupt entry*, not a crash.
_CORRUPTION_ERRORS = (
    OSError,  # includes gzip.BadGzipFile and plain I/O failures
    EOFError,
    ValueError,
    KeyError,
    TypeError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    zipfile.BadZipFile,
    zlib.error,
)

#: Fallback store location when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro"

_META = "meta.json"
_SERIES = "series.npz"
_TRACE = "trace.json.gz"

#: Renames a publish tries before it reports an I/O error: each lost
#: race (an overwriter retiring the entry that beat ours, a husk in the
#: way) costs one.
_PUBLISH_ATTEMPTS = 8

#: Reads refresh an entry's mtime (the ``cache gc`` recency signal) at
#: most this often per entry per process — warm sweeps were paying a
#: stat+utime on *every* load of the same hot artifact.
_TOUCH_INTERVAL = 3600.0
_TOUCH_TIMES: dict[tuple[str, str], float] = {}

# Per-process read cache, keyed (store root, content hash, artifact
# kind).  Module-global on purpose: ``default_store()`` builds a fresh
# ``ResultStore`` instance per call, so an instance-level cache would
# never be hit.  Pool workers (``run_specs`` with ``n_jobs > 1``) each
# get their own copy (the cache is inherited per-process, never
# shared).  Records carry the stat signature of the backing files; a
# hit is only served while the signature still matches, so on-disk
# corruption, overwrite and retirement are observed exactly as a cold
# read would see them.
_READ_CACHE: OrderedDict[tuple[str, str, str], dict] = OrderedDict()

#: Entry budget of the read cache.
READ_CACHE_ENTRIES = 64


def read_cache_stats() -> dict:
    """Per-process read-cache counters: a view of the metrics registry.

    ``hits`` are loads served from memory without touching artifact
    bytes; ``misses`` are loads that went to disk (and, budget
    permitting, populated the cache); ``evictions`` are records the LRU
    dropped to stay within :data:`READ_CACHE_ENTRIES`.  Each is the
    process total of ``repro_store_read_cache_<field>_total``; take
    differences to scope them.
    """
    registry = metrics_registry()
    return {
        field: int(registry.counter_value(f"repro_store_read_cache_{field}_total"))
        for field in READ_CACHE_FIELDS
    }


def clear_read_cache() -> None:
    """Drop every cached read (the counters keep counting)."""
    _READ_CACHE.clear()
    _TOUCH_TIMES.clear()


def _cache_get(ckey: tuple[str, str, str]) -> dict | None:
    record = _READ_CACHE.get(ckey)
    if record is not None:
        _READ_CACHE.move_to_end(ckey)
    return record


def _cache_put(ckey: tuple[str, str, str], record: dict) -> None:
    _READ_CACHE[ckey] = record
    _READ_CACHE.move_to_end(ckey)
    while len(_READ_CACHE) > READ_CACHE_ENTRIES:
        _READ_CACHE.popitem(last=False)
        metric_inc("repro_store_read_cache_evictions_total")


def _evict_read_cache(root: str, key: str) -> None:
    """Forget one entry (called whenever its on-disk files change)."""
    for kind in ("result", "trace"):
        _READ_CACHE.pop((root, key, kind), None)
    _TOUCH_TIMES.pop((root, key), None)


def _stat_sig(path: Path) -> tuple[int, int] | None:
    """``(mtime_ns, size)`` of a file, or ``None`` when it is absent."""
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


def default_store() -> "ResultStore":
    """The store selected by ``REPRO_CACHE_DIR`` (env read per call)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return ResultStore(root or DEFAULT_CACHE_DIR)


class ResultStore:
    """A content-addressed directory of experiment artifacts."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CACHE_DIR
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r})"

    # -- paths -------------------------------------------------------------
    def entry_dir(self, key: str) -> Path:
        """Directory of the entry with content hash ``key``."""
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self._objects / key[:2] / key

    def has(self, key: str) -> bool:
        """Whether a published entry exists for ``key``."""
        return (self.entry_dir(key) / _META).is_file()

    # -- publishing --------------------------------------------------------
    def _retire(self, key: str, final: Path) -> None:
        """Move ``final`` aside into ``tmp/`` and delete it there.

        The move is atomic, so a reader sees the whole entry or none of
        it (one mid-load keeps the moved-aside files alive via its open
        handles); nothing is ever deleted in place.
        """
        retired = self._tmp / f"{key}.{os.getpid()}.old"
        shutil.rmtree(retired, ignore_errors=True)
        try:
            os.replace(final, retired)
        except FileNotFoundError:
            return  # a concurrent writer retired it first
        shutil.rmtree(retired, ignore_errors=True)

    def _publish(self, key: str, stage: Path, overwrite: bool = False) -> None:
        # The entry's bytes are about to change (or appear): any cached
        # read of it is stale by definition.
        _evict_read_cache(str(self.root), key)
        final = self.entry_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        if overwrite and final.exists():
            # Clear the path so the rename below lands on it.
            self._retire(key, final)
        for attempt in range(_PUBLISH_ATTEMPTS):
            try:
                os.replace(stage, final)
                return
            except OSError:
                if (final / _META).is_file():
                    # A concurrent writer published the same key first;
                    # their artifact is byte-equivalent by construction.
                    shutil.rmtree(stage, ignore_errors=True)
                    return
                if final.exists():
                    # A meta-less husk (hard-killed writer, partial
                    # delete) blocks the rename: retire it and retry.
                    self._retire(key, final)
                # Otherwise the entry that won the race was retired by
                # an overwriter before we looked: retry the rename.  A
                # failure that outlasts the retries is a real I/O error
                # (disk full, permissions, clobbered tmp dir).
                if attempt == _PUBLISH_ATTEMPTS - 1:
                    raise

    def _stage(self, key: str) -> Path:
        self._tmp.mkdir(parents=True, exist_ok=True)
        stage = self._tmp / f"{key}.{os.getpid()}"
        if stage.exists():  # stale leftover from a killed run
            shutil.rmtree(stage)
        stage.mkdir()
        return stage

    def put_result(self, result: RunResult, overwrite: bool = False) -> None:
        """Publish a computed result (no-op if the key already exists,
        unless ``overwrite`` replaces the stored entry)."""
        if self.has(result.key) and not overwrite:
            return
        with span("store.put_result", cat="store", key=result.key[:12],
                  kind=result.spec.kind):
            stage = self._stage(result.key)
            meta = {
                "key": result.key,
                "kind": result.spec.kind,
                "spec": result.spec.to_json(),
                "meta": result.meta,
            }
            (stage / _META).write_text(
                json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8"
            )
            if result.arrays:
                with open(stage / _SERIES, "wb") as fh:
                    np.savez(fh, **result.arrays)
            self._publish(result.key, stage, overwrite=overwrite)

    def put_trace(self, spec: RunSpec, trace: Trace, meta: dict) -> None:
        """Publish a generated trace artifact under its spec key."""
        key = spec.key()
        if self.has(key):
            return
        with span("store.put_trace", cat="store", key=key[:12]):
            stage = self._stage(key)
            doc = {
                "key": key, "kind": "trace", "spec": spec.to_json(),
                "meta": meta,
            }
            (stage / _META).write_text(
                json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8"
            )
            trace.save(stage / _TRACE)
            self._publish(key, stage)

    # -- retrieval ---------------------------------------------------------
    def load_meta(self, key: str) -> dict | None:
        """The ``meta.json`` document of an entry, or ``None``."""
        path = self.entry_dir(key) / _META
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _touch(self, key: str) -> bool:
        """Refresh an entry's mtime (recency signal for LRU eviction).

        Throttled to once per entry per :data:`_TOUCH_INTERVAL` per
        process — recency only needs hour resolution, and warm sweeps
        re-read the same hot artifacts thousands of times.  Returns
        whether the mtime actually changed (the read cache must refresh
        its stat signature then).
        """
        tkey = (str(self.root), key)
        now = time.monotonic()
        last = _TOUCH_TIMES.get(tkey)
        if last is not None and now - last < _TOUCH_INTERVAL:
            return False
        try:
            os.utime(self.entry_dir(key) / _META)
        except OSError:  # pragma: no cover - racing remover / readonly store
            return False
        if len(_TOUCH_TIMES) > 65536:  # pragma: no cover - bound the memo
            _TOUCH_TIMES.clear()
        _TOUCH_TIMES[tkey] = now
        return True

    def _result_sig(self, key: str):
        """Stat signature of a result entry's backing files."""
        entry = self.entry_dir(key)
        return (_stat_sig(entry / _META), _stat_sig(entry / _SERIES))

    def _trace_sig(self, key: str):
        """Stat signature of a trace entry's backing files."""
        entry = self.entry_dir(key)
        return (_stat_sig(entry / _META), _stat_sig(entry / _TRACE))

    def _corrupt_miss(self, key: str, problem: str) -> None:
        """Warn about — and retire — a corrupt entry so the next publish
        repairs it; callers then treat the key as a plain cache miss."""
        warnings.warn(
            f"store entry {key[:12]} is corrupt ({problem}); "
            f"treating it as a cache miss",
            RuntimeWarning,
            stacklevel=3,
        )
        self.remove(key)

    def get_result(self, spec_or_key: RunSpec | str) -> RunResult | None:
        """Load a stored :class:`RunResult`, or ``None`` on a miss.

        Truncated or partially-deleted entries — a worker hard-killed
        mid-publish, a half-finished manual delete — are retired with a
        warning and reported as a miss, so a sweep recomputes instead of
        crashing mid-flight.
        """
        key = (
            spec_or_key if isinstance(spec_or_key, str) else spec_or_key.key()
        )
        with span("store.get_result", cat="store", key=key[:12]) as sp:
            root = str(self.root)
            ckey = (root, key, "result")
            record = _cache_get(ckey)
            if record is not None:
                if record["sig"] == self._result_sig(key):
                    metric_inc("repro_store_read_cache_hits_total")
                    if self._touch(key):
                        record["sig"] = self._result_sig(key)
                    sp.annotate(hit=True, cached=True)
                    return RunResult(
                        spec=record["spec"],
                        key=key,
                        meta=dict(record["meta"]),
                        arrays=dict(record["arrays"]),
                    )
                _READ_CACHE.pop(ckey, None)
            doc = self.load_meta(key)
            if doc is None:
                return None
            spec_doc, meta = doc.get("spec"), doc.get("meta")
            if not isinstance(spec_doc, dict) or not isinstance(meta, dict):
                self._corrupt_miss(key, "meta.json lacks spec/meta")
                return None
            try:
                spec = RunSpec.from_json(spec_doc)
            except Exception as exc:
                self._corrupt_miss(key, f"spec does not parse: {exc}")
                return None
            series = self.entry_dir(key) / _SERIES
            if series.is_file():
                try:
                    # np.load reads every member into process memory:
                    # results are stable snapshots that a later in-place
                    # overwrite of the entry never changes.
                    with np.load(series) as npz:
                        arrays = {name: npz[name] for name in npz.files}
                except _CORRUPTION_ERRORS as exc:
                    self._corrupt_miss(key, f"series.npz unreadable: {exc}")
                    return None
            elif doc.get("kind") in ("sim", "penalties"):
                self._corrupt_miss(key, "series.npz missing")
                return None
            else:
                arrays = {}
            # Cached records share these arrays with every later hit:
            # freeze them so a caller's in-place edit can't poison reads
            # other callers see.
            for arr in arrays.values():
                arr.setflags(write=False)
            self._touch(key)
            metric_inc("repro_store_read_cache_misses_total")
            _cache_put(
                ckey,
                {
                    "sig": self._result_sig(key),
                    "spec": spec,
                    "meta": meta,
                    "arrays": arrays,
                },
            )
            sp.annotate(hit=True)
            return RunResult(
                spec=spec, key=key, meta=dict(meta), arrays=dict(arrays)
            )

    def get_trace(self, spec_or_key: RunSpec | str) -> Trace | None:
        """Load a stored trace artifact, or ``None`` on a miss.

        Like :meth:`get_result`, a truncated or partially-deleted trace
        entry — its ``trace.json.gz`` or its ``meta.json`` — is retired
        with a warning and treated as a miss (the trace cache then
        regenerates and republishes it).
        """
        key = (
            spec_or_key if isinstance(spec_or_key, str) else spec_or_key.key()
        )
        with span("store.get_trace", cat="store", key=key[:12]) as sp:
            root = str(self.root)
            ckey = (root, key, "trace")
            record = _cache_get(ckey)
            if record is not None:
                if record["sig"] == self._trace_sig(key):
                    metric_inc("repro_store_read_cache_hits_total")
                    if self._touch(key):
                        record["sig"] = self._trace_sig(key)
                    sp.annotate(hit=True, cached=True)
                    return record["trace"]
                _READ_CACHE.pop(ckey, None)
            path = self.entry_dir(key) / _TRACE
            if not path.is_file():
                if self.has(key):
                    # meta.json survived but the artifact did not: without
                    # retiring the husk, put_trace would no-op forever.
                    self._corrupt_miss(key, "trace.json.gz missing")
                return None
            if self.load_meta(key) is None:
                # Same husk problem: a trace without a readable meta.json
                # would be served here and skipped by every listing.
                self._corrupt_miss(key, "meta.json missing or unparsable")
                return None
            try:
                trace = Trace.load(path)
            except _CORRUPTION_ERRORS as exc:
                self._corrupt_miss(key, f"trace.json.gz unreadable: {exc}")
                return None
            self._touch(key)
            metric_inc("repro_store_read_cache_misses_total")
            _cache_put(ckey, {"sig": self._trace_sig(key), "trace": trace})
            sp.annotate(hit=True)
            return trace

    def remove(self, key: str) -> bool:
        """Delete one entry; returns whether anything was removed."""
        _evict_read_cache(str(self.root), key)
        entry = self.entry_dir(key)
        if not entry.exists():
            return False
        shutil.rmtree(entry, ignore_errors=True)
        return True

    def iter_results(self, kind: str | None = None) -> Iterator[tuple[str, dict]]:
        """Stream ``(key, meta document)`` for every published entry.

        The streaming complement of :meth:`get_result`: nothing but the
        small ``meta.json`` is read — no series array is ever loaded —
        so iterating a million-run store costs a directory walk plus
        one small JSON parse per entry.  It is the store's one walker:
        ``repro cache ls``, :meth:`clear` and :meth:`gc` all scan
        through it.

        Corrupt entries (unparsable ``meta.json``, meta lacking its
        spec, a spec that no longer parses) are warn-skipped and
        retired exactly like :meth:`get_result` does, so one
        hard-killed writer cannot wedge every listing.  The yielded
        document is the stored ``meta.json`` plus ``nbytes`` and
        ``mtime`` bookkeeping fields.
        """
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                key = entry.name
                try:
                    self.entry_dir(key)
                except ValueError:
                    warnings.warn(
                        f"skipping malformed store entry name {key!r}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                doc = self.load_meta(key)
                if doc is None:
                    if (entry / _META).is_file():
                        self._corrupt_miss(key, "unparsable meta.json")
                    continue
                spec_doc, meta = doc.get("spec"), doc.get("meta")
                if not isinstance(spec_doc, dict) or not isinstance(meta, dict):
                    self._corrupt_miss(key, "meta.json lacks spec/meta")
                    continue
                try:
                    RunSpec.from_json(spec_doc)
                except Exception as exc:
                    self._corrupt_miss(key, f"spec does not parse: {exc}")
                    continue
                if kind is not None and doc.get("kind") != kind:
                    continue
                doc["nbytes"] = sum(
                    f.stat().st_size for f in entry.iterdir() if f.is_file()
                )
                doc["mtime"] = (entry / _META).stat().st_mtime
                yield key, doc

    # -- maintenance -------------------------------------------------------
    def clear(self, kind: str | None = None) -> int:
        """Remove entries (all, or one ``kind``); returns the count removed."""
        removed = 0
        for key, _ in list(self.iter_results(kind=kind)):
            _evict_read_cache(str(self.root), key)
            shutil.rmtree(self.entry_dir(key), ignore_errors=True)
            removed += 1
        shutil.rmtree(self._tmp, ignore_errors=True)
        return removed

    def gc(
        self,
        max_bytes: int | None = None,
        older_than_seconds: float | None = None,
        now: float | None = None,
    ) -> tuple[int, int]:
        """Evict entries by age and size budget; returns ``(count, bytes)``.

        Two policies, applied in order:

        * ``older_than_seconds`` — drop every entry whose mtime is older
          than the cutoff, regardless of the size budget;
        * ``max_bytes`` — while the store exceeds the budget, evict the
          least-recently-used entries (mtime order; reads refresh mtime,
          so warm-store hits keep their entries alive).

        Entries are content-addressed, so eviction is always safe: a
        future sweep that needs an evicted artifact recomputes it.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if older_than_seconds is not None and older_than_seconds < 0:
            raise ValueError("older_than_seconds must be >= 0")
        docs = sorted(  # LRU first
            ({**doc, "key": key} for key, doc in self.iter_results()),
            key=lambda d: d["mtime"],
        )
        now = time.time() if now is None else now
        removed, freed = 0, 0
        if older_than_seconds is not None:
            cutoff = now - older_than_seconds
            expired = [d for d in docs if d["mtime"] < cutoff]
            docs = [d for d in docs if d["mtime"] >= cutoff]
            for doc in expired:
                if self.remove(doc["key"]):
                    removed += 1
                    freed += doc["nbytes"]
        if max_bytes is not None:
            total = sum(d["nbytes"] for d in docs)
            for doc in docs:
                if total <= max_bytes:
                    break
                if self.remove(doc["key"]):
                    removed += 1
                    freed += doc["nbytes"]
                    total -= doc["nbytes"]
        return removed, freed

    def _verify_entry(self, key: str) -> str | None:
        """The problem with one published entry, or ``None`` if sound."""
        entry = self.entry_dir(key)
        doc = self.load_meta(key)
        if doc is None:
            return (
                "unparsable meta.json"
                if (entry / _META).is_file()
                else "missing meta.json"
            )
        if doc.get("key") != key:
            return f"meta.json key mismatch ({str(doc.get('key'))[:12]})"
        if not isinstance(doc.get("spec"), dict) or not isinstance(
            doc.get("meta"), dict
        ):
            return "meta.json lacks spec/meta"
        try:
            RunSpec.from_json(doc["spec"])
        except Exception as exc:
            return f"spec does not parse: {exc}"
        if doc.get("kind") == "trace":
            path = entry / _TRACE
            if not path.is_file():
                return "trace.json.gz missing"
            try:
                with gzip.open(path, "rb") as fh:
                    while fh.read(1 << 20):
                        pass
            except _CORRUPTION_ERRORS as exc:
                return f"trace.json.gz unreadable: {exc}"
            return None
        path = entry / _SERIES
        if not path.is_file():
            return "series.npz missing"
        try:
            with np.load(path) as npz:
                for name in npz.files:
                    npz[name]
        except _CORRUPTION_ERRORS as exc:
            return f"series.npz unreadable: {exc}"
        return None

    def verify(self, remove: bool = False) -> list[dict]:
        """Scan every entry for corruption; optionally retire the damage.

        Hard-killed workers leave three kinds of debris behind: staged
        entries stranded in ``tmp/``, truncated artifacts, and entries a
        partial delete left without their ``meta.json`` or payload.  Each
        problem is reported as ``{"key", "path", "problem", "removed"}``;
        with ``remove`` the offending entry (or stray staging directory)
        is deleted — always safe, since a content-addressed entry is
        recomputed on the next request.
        """
        problems: list[dict] = []

        def _report(key: str | None, path: Path, problem: str) -> None:
            removed = False
            if remove:
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
                removed = True
            problems.append(
                {
                    "key": key,
                    "path": str(path),
                    "problem": problem,
                    "removed": removed,
                }
            )

        if self._objects.is_dir():
            for shard in sorted(self._objects.iterdir()):
                if not shard.is_dir():
                    continue
                for entry in sorted(shard.iterdir()):
                    try:
                        problem = self._verify_entry(entry.name)
                    except ValueError:
                        problem = "malformed store key"
                    if problem is not None:
                        _report(entry.name, entry, problem)
        if self._tmp.is_dir():
            for stray in sorted(self._tmp.iterdir()):
                _report(None, stray, "stranded staging entry")
        return problems
