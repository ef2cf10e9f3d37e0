"""Out-of-core queries over a warehouse: scan, project, filter, aggregate.

The characterization study's questions are all of the shape "compare a
metric across apps / scales / partitioners / machine models" — column
projections plus grouped aggregation.  This module answers them without
ever materializing the dataset:

* :func:`scan` streams one chunk (dict of aligned columns) per shard,
  pruning whole hive partitions when a filter binds ``app`` / ``scale``
  / ``partitioner`` (no shard in a pruned partition is opened — the
  ``warehouse.scan`` span records rows scanned and pruned);
* :func:`scan_table` concatenates a scan (convenience for small
  results);
* :func:`group_stats` folds a scan into per-group count/mean/std/
  min/max with bounded memory (one running accumulator per group —
  chunked Welford-free sums, never the rows themselves).

Filters are equality / membership: ``{"app": "tp2d"}`` or
``{"partitioner": ("nature+fable", "patch-lpt")}``.  Partition-column
filters prune directories; any other column filters rows per chunk.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from ..telemetry import span
from .dataset import Warehouse
from .schema import PARTITION_COLUMNS

__all__ = ["scan", "scan_table", "group_stats"]


def _filter_values(value) -> tuple:
    """Normalize one filter into a tuple of accepted values."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        return (value,)
    return tuple(value)


def _normalize_filters(filters: Mapping | None) -> dict[str, tuple]:
    return {
        name: _filter_values(value) for name, value in (filters or {}).items()
    }


def _partition_pruned(
    warehouse: Warehouse, partition: str, filters: dict[str, tuple]
) -> bool:
    values = warehouse.partition_values(partition)
    for column in PARTITION_COLUMNS:
        accepted = filters.get(column)
        if accepted is not None and values[column] not in {
            str(v) for v in accepted
        }:
            return True
    return False


def scan(
    warehouse: Warehouse,
    table: str = "steps",
    columns: Sequence[str] | None = None,
    filters: Mapping | None = None,
) -> Iterator[dict[str, np.ndarray]]:
    """Stream a table as per-shard column chunks.

    Parameters
    ----------
    columns :
        Projection; ``None`` yields every column a shard holds.  The
        partition columns (``app``/``scale``/``partitioner``) are valid
        projections of either table — their values come from the hive
        path, so requesting them costs nothing.
    filters :
        Column -> accepted value(s).  Partition-column filters prune
        directories before any I/O; other filters load only the filter
        columns first and mask each chunk.

    Yields chunks whose columns are aligned 1-d arrays; empty chunks
    (fully masked shards) are skipped.  The ``warehouse.scan`` span
    records rows scanned vs. rows pruned.
    """
    filters = _normalize_filters(filters)
    wanted = None if columns is None else list(columns)
    partition_rows = warehouse.partition_rows()
    rows_scanned = rows_pruned = shards_opened = partitions_pruned = 0
    with span(
        "warehouse.scan", cat="warehouse", table=table,
        columns=",".join(wanted) if wanted else "*",
    ) as sp:
        for partition in warehouse.partitions(table):
            if _partition_pruned(warehouse, partition, filters):
                partitions_pruned += 1
                if table == "steps":
                    rows_pruned += partition_rows.get(partition, 0)
                continue
            hive_values = warehouse.partition_values(partition)
            row_filters = {
                name: accepted
                for name, accepted in filters.items()
                if name not in PARTITION_COLUMNS
            }
            for shard in warehouse.shards(table, partition):
                shards_opened += 1
                available = warehouse.format.columns(shard)
                needed = set(row_filters)
                if wanted is not None:
                    needed |= set(wanted)
                needed -= set(PARTITION_COLUMNS)  # synthesized from the path
                missing = sorted(needed - set(available))
                if missing:
                    raise ValueError(
                        f"shard {shard.name} in {partition} has no column(s) "
                        f"{missing}; it holds {sorted(available)} (filter on "
                        f"the partition columns to restrict the scan to one "
                        f"run kind)"
                    )
                load = None if wanted is None else sorted(needed)
                if load is not None and not load:
                    # Only partition columns requested: read one real
                    # column for the row count, synthesize the rest.
                    load = ["key"]
                chunk = warehouse.format.read(shard, columns=load)
                n = len(next(iter(chunk.values())))
                mask = None
                for name, accepted in row_filters.items():
                    hit = np.isin(chunk[name], np.array(accepted))
                    mask = hit if mask is None else (mask & hit)
                if mask is not None:
                    kept = int(mask.sum())
                    rows_pruned += n - kept
                    if kept == 0:
                        continue
                    chunk = {k: v[mask] for k, v in chunk.items()}
                    n = kept
                rows_scanned += n
                out = chunk
                if wanted is not None:
                    out = {}
                    for name in wanted:
                        if name in chunk:
                            out[name] = chunk[name]
                        else:  # a partition column: synthesize from the path
                            out[name] = np.full(n, hive_values[name])
                yield out
        sp.annotate(
            rows=rows_scanned, rows_pruned=rows_pruned,
            shards=shards_opened, partitions_pruned=partitions_pruned,
        )


def scan_table(
    warehouse: Warehouse,
    table: str = "steps",
    columns: Sequence[str] | None = None,
    filters: Mapping | None = None,
) -> dict[str, np.ndarray]:
    """Materialize a (presumably small) scan into one column dict."""
    chunks = list(scan(warehouse, table, columns=columns, filters=filters))
    if not chunks:
        return {}
    return {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in chunks[0]
    }


def group_stats(
    warehouse: Warehouse,
    table: str = "steps",
    by: Sequence[str] = ("app",),
    values: Sequence[str] = (),
    filters: Mapping | None = None,
) -> dict[tuple, dict[str, dict]]:
    """Grouped scalar statistics with bounded memory.

    Returns ``{group key tuple: {value column: {count, mean, std, min,
    max}}}``; ``std`` is the population standard deviation (matching
    ``np.std``).  Accumulation is chunked — per group and value column
    only ``(count, sum, sum of squares, min, max)`` are held, so the
    aggregation is out-of-core no matter how many rows the warehouse
    holds.
    """
    by = list(by)
    values = list(values)
    if not by:
        raise ValueError("need at least one group-by column")
    if not values:
        raise ValueError("need at least one value column")
    acc: dict[tuple, dict[str, list]] = {}
    for chunk in scan(
        warehouse, table, columns=[*by, *values], filters=filters
    ):
        group_cols = [np.asarray(chunk[name]) for name in by]
        stacked = np.stack(
            [col.astype(str) for col in group_cols], axis=1
        )
        uniques, inverse = np.unique(stacked, axis=0, return_inverse=True)
        for gid, row in enumerate(uniques):
            mask = inverse == gid
            raw_key = tuple(
                col[np.flatnonzero(mask)[0]].item() for col in group_cols
            )
            slot = acc.setdefault(raw_key, {})
            for name in values:
                data = np.asarray(
                    chunk[name][mask], dtype=np.float64
                )
                stats = slot.setdefault(
                    name, [0, 0.0, 0.0, np.inf, -np.inf]
                )
                stats[0] += data.size
                stats[1] += float(data.sum())
                stats[2] += float((data * data).sum())
                if data.size:
                    stats[3] = min(stats[3], float(data.min()))
                    stats[4] = max(stats[4], float(data.max()))
    out: dict[tuple, dict[str, dict]] = {}
    for key in sorted(acc, key=lambda k: tuple(str(v) for v in k)):
        out[key] = {}
        for name, (count, total, sumsq, lo, hi) in acc[key].items():
            mean = total / count if count else float("nan")
            var = max(sumsq / count - mean * mean, 0.0) if count else 0.0
            out[key][name] = {
                "count": int(count),
                "mean": mean,
                "std": float(np.sqrt(var)),
                "min": lo,
                "max": hi,
            }
    return out
