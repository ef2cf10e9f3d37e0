"""The sweep warehouse: a hive-partitioned columnar dataset on disk.

Layout (default root ``<store>/warehouse``, any directory works)::

    <root>/manifest.json                         schema + format + ingested keys
    <root>/runs/app=<a>/scale=<s>/partitioner=<p>/part-<digest>.<ext>
    <root>/steps/app=<a>/scale=<s>/partitioner=<p>/part-<digest>.<ext>

Both tables carry the same hive partition triple, so a query filtered
on app/scale/partitioner prunes whole directories without opening a
single shard.  The shard format (npz by default, Parquet with the
pyarrow extra) is pinned in the manifest — one dataset, one format.

**Incremental, idempotent ingest.**  The manifest records every store
key already flattened into the dataset, so ``build`` ingests exactly
the store keys it has not seen (content-hash keyed: the store key *is*
the content hash).  Re-building over an unchanged store ingests zero
runs; results published while a build runs are picked up by the next
one (or by ``repro warehouse build --follow``).  Ingest is crash-safe
without write-ahead logging:

* a chunk's two shards share one digest name derived from the sorted
  keys they hold, and a chunk *exists* only when both files do —
  readers skip dangling halves, and the next build deletes them and
  re-ingests their keys (the deterministic name makes the common
  crash-retry a byte-identical overwrite);
* complete chunk pairs missing from the manifest (a crash after the
  shard renames, before the manifest write) are *adopted* — their keys
  and row counts are read back from the shards instead of re-ingested.

The flatten step preserves series dtypes exactly, so scanning a run's
steps back out of the warehouse reproduces the stored ``RunResult``
arrays bit-for-bit — the property that lets ``repro report`` render
figures from the warehouse byte-identically to the store-scan path.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..engine.spec import RunSpec
from ..engine.store import ResultStore
from ..telemetry import span
from .formats import WarehouseFormat, resolve_format
from .schema import (
    PARTITION_COLUMNS,
    WAREHOUSE_KINDS,
    WAREHOUSE_SCHEMA_VERSION,
    FlatRun,
    flatten_run,
    partition_path,
    partition_values,
)

__all__ = [
    "Warehouse",
    "BuildPlan",
    "BuildReport",
    "default_warehouse_root",
    "render_build_plan",
]

_MANIFEST = "manifest.json"
_TABLES = ("runs", "steps")


def default_warehouse_root(store: ResultStore) -> Path:
    """Where a store's warehouse lives unless overridden: ``<root>/warehouse``."""
    return store.root / "warehouse"


@dataclass(frozen=True)
class BuildPlan:
    """The pre-execution analysis of one ingest: what *would* be written.

    ``partitions`` maps hive path -> ``{"runs", "rows", "bytes"}`` for
    the new work only (``rows`` counts steps-table rows, read from the
    stored npy headers without loading any series; ``bytes`` is the
    size of the source store entries).  ``skipped`` tallies store
    entries the warehouse does not ingest, by reason.
    """

    new_keys: tuple[str, ...]
    partitions: dict[str, dict]
    already_ingested: int
    skipped: dict[str, int] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(p["rows"] for p in self.partitions.values())

    @property
    def total_bytes(self) -> int:
        return sum(p["bytes"] for p in self.partitions.values())


@dataclass(frozen=True)
class BuildReport:
    """What one ``build`` actually ingested."""

    runs: int
    rows: int
    shards: int
    partitions: tuple[str, ...]
    adopted: int = 0
    skipped_corrupt: int = 0


def _series_rows(store: ResultStore, key: str) -> int | None:
    """Steps-row count of a stored result, without loading any array.

    Reads the npy header of the ``step`` member straight out of the
    ``series.npz`` zip directory — a few hundred bytes per entry, which
    is what keeps ``--preview`` cheap on a million-run store.
    """
    path = store.entry_dir(key) / "series.npz"
    try:
        with zipfile.ZipFile(path) as zf:
            with zf.open("step.npy") as fh:
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, _, _ = np.lib.format.read_array_header_1_0(fh)
                else:
                    shape, _, _ = np.lib.format.read_array_header_2_0(fh)
        return int(shape[0])
    except Exception:
        return None


def _chunk_digest(keys: Sequence[str]) -> str:
    """Deterministic shard name stem for the chunk holding ``keys``."""
    joined = "\n".join(sorted(keys))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _rows_to_columns(rows: list[dict]) -> dict[str, np.ndarray]:
    """Stack aligned runs-table rows into columns (missing -> error)."""
    names = list(rows[0])
    for row in rows[1:]:
        if list(row) != names:
            raise ValueError(
                "runs rows disagree on columns: "
                f"{sorted(set(names) ^ set(row))}"
            )
    return {name: np.array([row[name] for row in rows]) for name in names}


class Warehouse:
    """One hive-partitioned columnar dataset over a result store."""

    def __init__(
        self,
        root: str | Path,
        format: "str | WarehouseFormat | None" = None,
    ) -> None:
        self.root = Path(root)
        self._manifest_path = self.root / _MANIFEST
        existing = self._read_manifest()
        if existing is not None:
            if existing.get("schema") != WAREHOUSE_SCHEMA_VERSION:
                raise ValueError(
                    f"warehouse at {self.root} has schema "
                    f"{existing.get('schema')!r}; this build speaks "
                    f"{WAREHOUSE_SCHEMA_VERSION} — rebuild it from the store"
                )
            pinned = existing.get("format", "npz")
            if format is not None:
                # Compare by name before resolving: asking for an
                # unavailable backend must still report the pin
                # conflict, not the backend's import error.
                requested = (
                    format.name
                    if isinstance(format, WarehouseFormat)
                    else str(format)
                )
                if requested != pinned:
                    raise ValueError(
                        f"warehouse at {self.root} is pinned to the "
                        f"{pinned!r} format; cannot open it as "
                        f"{requested!r}"
                    )
            self.format = (
                format
                if isinstance(format, WarehouseFormat)
                else resolve_format(pinned)
            )
            self._manifest = existing
        else:
            self.format = resolve_format(format)
            self._manifest = {
                "schema": WAREHOUSE_SCHEMA_VERSION,
                "format": self.format.name,
                "ingested": {},
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Warehouse({str(self.root)!r}, format={self.format.name!r})"

    # -- manifest ----------------------------------------------------------
    def _read_manifest(self) -> dict | None:
        try:
            return json.loads(self._manifest_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _save_manifest(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._manifest_path.with_name(
            f".{_MANIFEST}.{os.getpid()}.tmp"
        )
        tmp.write_text(
            json.dumps(self._manifest, sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, self._manifest_path)

    @property
    def manifest(self) -> dict:
        return self._manifest

    def ingested(self) -> dict[str, dict]:
        """Store key -> ``{"partition", "rows"}`` for every ingested run."""
        return self._manifest["ingested"]

    # -- layout ------------------------------------------------------------
    def table_dir(self, table: str) -> Path:
        if table not in _TABLES:
            raise ValueError(f"table must be one of {_TABLES}, got {table!r}")
        return self.root / table

    def partitions(self, table: str = "steps") -> list[str]:
        """Hive partition paths that physically exist for one table."""
        base = self.table_dir(table)
        found = []
        for app_dir in sorted(base.glob("app=*")):
            for scale_dir in sorted(app_dir.glob("scale=*")):
                for part_dir in sorted(scale_dir.glob("partitioner=*")):
                    found.append(
                        str(part_dir.relative_to(base)).replace(os.sep, "/")
                    )
        return found

    def _partition_dir(self, table: str, partition: str) -> Path:
        return self.table_dir(table).joinpath(*partition.split("/"))

    def _chunk_pairs(self, partition: str) -> dict[str, dict[str, Path]]:
        """Digest -> ``{table: shard path}`` for one partition."""
        pairs: dict[str, dict[str, Path]] = {}
        for table in _TABLES:
            pdir = self._partition_dir(table, partition)
            for shard in pdir.glob(f"part-*{self.format.suffix}"):
                digest = shard.name[len("part-"):].removesuffix(
                    self.format.suffix
                )
                pairs.setdefault(digest, {})[table] = shard
        return pairs

    def shards(self, table: str, partition: str) -> list[Path]:
        """Readable shards of one table partition (complete chunks only).

        A chunk exists only when both its ``runs`` and ``steps`` shards
        do; a dangling half is a crashed write the next build cleans up,
        and readers must not surface its rows.
        """
        return sorted(
            paths[table]
            for paths in self._chunk_pairs(partition).values()
            if len(paths) == len(_TABLES)
        )

    def partition_values(self, partition: str) -> dict[str, str]:
        """``"app=tp2d/..."`` -> ``{"app": "tp2d", ...}``."""
        values = dict(part.split("=", 1) for part in partition.split("/"))
        if tuple(values) != PARTITION_COLUMNS:
            raise ValueError(f"malformed partition path {partition!r}")
        return values

    def partition_rows(self) -> dict[str, int]:
        """Manifest-derived steps-row count per partition (for pruning
        telemetry and ``status`` — no shard is opened)."""
        rows: dict[str, int] = {}
        for entry in self.ingested().values():
            rows[entry["partition"]] = (
                rows.get(entry["partition"], 0) + entry["rows"]
            )
        return rows

    # -- planning ----------------------------------------------------------
    def plan(
        self,
        store: ResultStore,
        kinds: Sequence[str] = WAREHOUSE_KINDS,
    ) -> BuildPlan:
        """Analyze an ingest before writing anything (``--preview``)."""
        for kind in kinds:
            if kind not in WAREHOUSE_KINDS:
                raise ValueError(
                    f"cannot ingest kind {kind!r}; choose from "
                    f"{WAREHOUSE_KINDS}"
                )
        ingested = self.ingested()
        new_keys: list[str] = []
        partitions: dict[str, dict] = {}
        already = 0
        skipped: dict[str, int] = {}
        for key, doc in store.iter_results():
            kind = doc.get("kind")
            if kind not in kinds:
                skipped[kind] = skipped.get(kind, 0) + 1
                continue
            if key in ingested:
                already += 1
                continue
            try:
                spec = RunSpec.from_json(doc["spec"])
                partition = partition_path(partition_values(spec))
            except Exception:
                skipped["corrupt"] = skipped.get("corrupt", 0) + 1
                continue
            rows = _series_rows(store, key)
            new_keys.append(key)
            slot = partitions.setdefault(
                partition, {"runs": 0, "rows": 0, "bytes": 0}
            )
            slot["runs"] += 1
            slot["rows"] += rows if rows is not None else 0
            slot["bytes"] += int(doc.get("nbytes", 0))
        return BuildPlan(
            new_keys=tuple(new_keys),
            partitions=partitions,
            already_ingested=already,
            skipped=skipped,
        )

    # -- repair ------------------------------------------------------------
    def _repair_partition(self, partition: str) -> int:
        """Reconcile one partition's shards with the manifest.

        Deletes dangling chunk halves (crash mid-chunk) and adopts
        complete chunks the manifest missed (crash after the renames).
        Returns the number of adopted runs.
        """
        ingested = self.ingested()
        adopted = 0
        for paths in self._chunk_pairs(partition).values():
            if len(paths) < len(_TABLES):
                for half in paths.values():
                    half.unlink(missing_ok=True)
                continue
            run_keys = self.format.read(paths["runs"], columns=["key"])["key"]
            if all(str(k) in ingested for k in run_keys):
                continue
            step_keys = self.format.read(paths["steps"], columns=["key"])[
                "key"
            ]
            uniques, counts = np.unique(step_keys, return_counts=True)
            rows_by_key = {str(k): int(n) for k, n in zip(uniques, counts)}
            for k in run_keys:
                k = str(k)
                if k not in ingested:
                    ingested[k] = {
                        "partition": partition,
                        "rows": rows_by_key.get(k, 0),
                    }
                    adopted += 1
        if adopted:
            self._save_manifest()
        return adopted

    # -- ingest ------------------------------------------------------------
    def _flush_chunk(
        self, partition: str, flats: list[FlatRun]
    ) -> tuple[int, int]:
        """Write one chunk (steps shard, runs shard, manifest) atomically
        enough: the chunk becomes visible only once both shards exist,
        and the manifest write is last."""
        digest = _chunk_digest([f.key for f in flats])
        steps_cols: dict[str, np.ndarray] = {}
        for name in flats[0].steps:
            steps_cols[name] = np.concatenate(
                [f.steps[name] for f in flats]
            )
        runs_cols = _rows_to_columns([f.runs_row for f in flats])
        nbytes = 0
        for table, cols in (("steps", steps_cols), ("runs", runs_cols)):
            shard = self._partition_dir(table, partition) / (
                f"part-{digest}{self.format.suffix}"
            )
            nbytes += self.format.write(shard, cols)
        ingested = self.ingested()
        for flat in flats:
            ingested[flat.key] = {
                "partition": partition,
                "rows": flat.n_steps,
            }
        self._save_manifest()
        return sum(f.n_steps for f in flats), nbytes

    def ingest_keys(
        self,
        store: ResultStore,
        keys: Sequence[str],
        max_rows_per_shard: int = 250_000,
        progress: Callable[[str], None] | None = None,
    ) -> BuildReport:
        """Flatten and append explicit store keys (the post-publish hook
        API; ``build`` is this over a plan's new keys).

        Keys already in the manifest are skipped, so calling this from
        a publish hook and running periodic builds cannot duplicate
        rows.  Chunks are flushed once they reach ``max_rows_per_shard``
        steps rows, so ingest memory stays bounded by the chunk size,
        not the store size.
        """
        if max_rows_per_shard < 1:
            raise ValueError("max_rows_per_shard must be >= 1")
        say = progress or (lambda line: None)
        by_partition: dict[str, list[str]] = {}
        skipped_corrupt = 0
        plan_keys: list[str] = []
        ingested = self.ingested()
        for key in sorted(set(keys)):
            if key in ingested:
                continue
            doc = store.load_meta(key)
            if doc is None:
                skipped_corrupt += 1
                continue
            try:
                spec = RunSpec.from_json(doc["spec"])
                partition = partition_path(partition_values(spec))
            except Exception:
                skipped_corrupt += 1
                continue
            by_partition.setdefault(partition, []).append(key)
            plan_keys.append(key)

        runs = rows = shards = adopted = 0
        touched: list[str] = []
        with span(
            "warehouse.build", cat="warehouse", root=str(self.root),
            format=self.format.name, candidates=len(plan_keys),
        ) as build_span:
            for partition in sorted(by_partition):
                adopted += self._repair_partition(partition)
                pending = [
                    k for k in by_partition[partition]
                    if k not in self.ingested()
                ]
                if not pending:
                    continue
                buffer: list[FlatRun] = []
                buffered_rows = 0

                def flush() -> None:
                    nonlocal buffer, buffered_rows, rows, runs, shards
                    if not buffer:
                        return
                    with span(
                        "warehouse.flush", cat="warehouse",
                        partition=partition, runs=len(buffer),
                    ):
                        chunk_rows, _ = self._flush_chunk(partition, buffer)
                    rows += chunk_rows
                    runs += len(buffer)
                    shards += 1
                    say(
                        f"  {partition}: +{len(buffer)} runs "
                        f"({chunk_rows} rows)"
                    )
                    buffer = []
                    buffered_rows = 0

                for key in pending:
                    result = store.get_result(key)
                    if result is None:
                        skipped_corrupt += 1
                        continue
                    flat = flatten_run(result)
                    if buffer and (
                        buffered_rows + flat.n_steps > max_rows_per_shard
                        or list(flat.steps) != list(buffer[0].steps)
                        or list(flat.runs_row) != list(buffer[0].runs_row)
                    ):
                        flush()
                    buffer.append(flat)
                    buffered_rows += flat.n_steps
                flush()
                touched.append(partition)
            build_span.annotate(runs=runs, rows=rows)
        return BuildReport(
            runs=runs,
            rows=rows,
            shards=shards,
            partitions=tuple(touched),
            adopted=adopted,
            skipped_corrupt=skipped_corrupt,
        )

    def build(
        self,
        store: ResultStore,
        kinds: Sequence[str] = WAREHOUSE_KINDS,
        max_rows_per_shard: int = 250_000,
        progress: Callable[[str], None] | None = None,
    ) -> BuildReport:
        """Incrementally ingest everything the store holds that the
        warehouse does not.  Idempotent: a second build over an
        unchanged store ingests zero runs."""
        plan = self.plan(store, kinds=kinds)
        return self.ingest_keys(
            store,
            plan.new_keys,
            max_rows_per_shard=max_rows_per_shard,
            progress=progress,
        )

    # -- per-run readback --------------------------------------------------
    def _run_entry(self, key: str) -> dict:
        try:
            return self.ingested()[key]
        except KeyError:
            raise KeyError(
                f"run {key[:12]} is not in the warehouse at {self.root}; "
                f"run `repro warehouse build` first"
            ) from None

    def run_row(self, key: str) -> dict:
        """One run's ``runs``-table row as a dict of python scalars."""
        partition = self._run_entry(key)["partition"]
        for shard in self.shards("runs", partition):
            cols = self.format.read(shard)
            mask = cols["key"] == key
            if mask.any():
                idx = int(np.flatnonzero(mask)[0])
                return {
                    name: col[idx].item()
                    if isinstance(col[idx], np.generic)
                    else col[idx]
                    for name, col in cols.items()
                }
        raise KeyError(
            f"run {key[:12]} is in the manifest but its runs shard is "
            f"missing; rebuild the warehouse at {self.root}"
        )

    def run_series(
        self, key: str, names: Sequence[str] | None = None
    ) -> dict[str, np.ndarray]:
        """One run's metric series, reconstructed from the steps table.

        Bit-identical (values *and* dtypes) to the stored
        ``RunResult.arrays`` — the flatten/write/scan pipeline never
        converts a series.
        """
        partition = self._run_entry(key)["partition"]
        wanted = None if names is None else list(names)
        pieces: list[dict[str, np.ndarray]] = []
        for shard in self.shards("steps", partition):
            keys = self.format.read(shard, columns=["key"])["key"]
            mask = keys == key
            if not mask.any():
                continue
            columns = (
                self.format.columns(shard)
                if wanted is None
                else ["step_index", *wanted]
            )
            cols = self.format.read(shard, columns=list(columns))
            pieces.append({name: col[mask] for name, col in cols.items()})
        if not pieces:
            raise KeyError(
                f"run {key[:12]} is in the manifest but its steps rows are "
                f"missing; rebuild the warehouse at {self.root}"
            )
        merged = {
            name: np.concatenate([p[name] for p in pieces])
            for name in pieces[0]
        }
        order = np.argsort(merged["step_index"], kind="stable")
        out = {}
        for name, col in merged.items():
            if name in ("key", "step_index") and (
                wanted is None or name not in wanted
            ):
                continue
            out[name] = col[order]
        return out

    # -- status ------------------------------------------------------------
    def disk_bytes(self) -> int:
        """Total shard bytes on disk (manifest excluded)."""
        return sum(
            f.stat().st_size
            for table in _TABLES
            for f in self.table_dir(table).rglob(f"*{self.format.suffix}")
            if f.is_file()
        )

    def status(self, store: ResultStore | None = None) -> dict:
        """Summary document for ``repro warehouse status``."""
        ingested = self.ingested()
        partitions: dict[str, dict] = {}
        for key, entry in ingested.items():
            slot = partitions.setdefault(
                entry["partition"], {"runs": 0, "rows": 0}
            )
            slot["runs"] += 1
            slot["rows"] += entry["rows"]
        doc = {
            "root": str(self.root),
            "schema": WAREHOUSE_SCHEMA_VERSION,
            "format": self.format.name,
            "runs": len(ingested),
            "rows": sum(p["rows"] for p in partitions.values()),
            "partitions": dict(sorted(partitions.items())),
            "bytes": self.disk_bytes() if self.root.exists() else 0,
        }
        if store is not None:
            plan = self.plan(store)
            doc["pending"] = len(plan.new_keys)
            doc["pending_rows"] = plan.total_rows
        return doc

    def iter_chunks(
        self,
        table: str,
        partition: str,
        columns: Sequence[str] | None = None,
    ) -> Iterator[dict[str, np.ndarray]]:
        """Stream one partition's shards (the query layer's feed)."""
        for shard in self.shards(table, partition):
            yield self.format.read(
                shard, columns=None if columns is None else list(columns)
            )


def render_build_plan(plan: BuildPlan, format_name: str = "npz") -> str:
    """The ``--preview`` partition plan: partitions, rows and bytes
    before anything is written (smart pre-execution analysis)."""
    lines = [
        f"warehouse build plan: {len(plan.new_keys)} new runs, "
        f"{plan.total_rows} steps rows, "
        f"{plan.total_bytes / 1e6:.1f} MB of source entries "
        f"({format_name} backend)"
    ]
    if plan.partitions:
        width = max(len(p) for p in plan.partitions)
        lines.append(
            f"  {'partition':<{width}} {'runs':>6} {'rows':>8} {'kB':>9}"
        )
        for partition in sorted(plan.partitions):
            slot = plan.partitions[partition]
            lines.append(
                f"  {partition:<{width}} {slot['runs']:>6} "
                f"{slot['rows']:>8} {slot['bytes'] / 1024:>9.1f}"
            )
    else:
        lines.append("  nothing to ingest: the warehouse is current")
    detail = [f"{plan.already_ingested} already ingested"]
    detail += [
        f"{count} {reason} skipped"
        for reason, count in sorted(plan.skipped.items())
    ]
    lines.append("  " + ", ".join(detail))
    return "\n".join(lines)
