"""Vectorized per-distribution metrics: sparse box calculus on owner maps.

Everything the execution simulator measures — ghost-cell exchange volume,
parent-child (inter-level) transfer volume, data migration between
consecutive distributions and per-rank loads — is computed on sparse
:class:`~repro.geometry.OwnerMap` corner arrays: face-adjacency sweeps
between owner boxes for the ghost metrics, corner intersections for
inter-level transfer and migration.  Cost scales with patch counts, not
with the volume of the finest index space.  Every pair query hands the
exact arithmetic only the pairs that intersect (or touch), found by
:mod:`repro.geometry.pairindex`: a chunked hit matrix for small queries
and a slab sweep for large ones, so ``deep`` and ``ultra`` 3-D runs are
tractable end to end.  The hit matrix is the sweep's oracle in the
tests.

Every function takes owner maps only; a dense owner raster (int32,
:data:`~repro.geometry.NO_OWNER` outside the refined region) converts
with :meth:`OwnerMap.from_raster <repro.geometry.OwnerMap.from_raster>`.

These quantities are the exact counterparts of what the Rutgers
trace-driven simulator reports (section 5.1.3: "load balance,
communication, data migration, and overheads").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..geometry import (
    OwnerMap,
    face_contacts,
    matched_volume,
    overlap_volume,
    overlay_corners,
)

if TYPE_CHECKING:  # import cycle guard: repro.partition imports nothing
    # from the simulator, but keep the reference annotation-only anyway.
    from ..partition import PartitionResult

__all__ = [
    "ghost_exchange_cells",
    "ghost_face_stats",
    "ghost_message_pairs",
    "interlevel_transfer_cells",
    "migration_cells",
]


def ghost_face_stats(owners: OwnerMap) -> tuple[int, int]:
    """``(cut faces, distinct unordered rank pairs)`` of one level map.

    One pair sweep serves both ghost metrics; the simulator uses this to
    avoid running the face scan twice per level.
    """
    ra, rb, area = face_contacts(owners.corners, owners.ranks)
    if area.size == 0:
        return 0, 0
    lo = np.minimum(ra, rb).astype(np.int64)
    hi = np.maximum(ra, rb).astype(np.int64)
    pairs = np.unique((lo << np.int64(32)) | hi).size
    return int(area.sum()), int(pairs)


def ghost_exchange_cells(owners: OwnerMap, ghost_width: int = 1) -> int:
    """Cells exchanged per local step across rank boundaries of one level.

    Every face between two refined cells with different owners moves
    ``ghost_width`` cells in each direction per local time step (standard
    Berger--Colella ghost-region fill).
    """
    if ghost_width < 0:
        raise ValueError("ghost_width must be >= 0")
    faces, _ = ghost_face_stats(owners)
    return 2 * ghost_width * faces


def ghost_message_pairs(owners: OwnerMap) -> int:
    """Distinct communicating (owner, owner) neighbour pairs of one level.

    Approximates the per-step message count of the ghost exchange (each
    adjacent rank pair exchanges one message per direction per step).
    """
    _, pairs = ghost_face_stats(owners)
    return 2 * pairs


def interlevel_transfer_cells(
    coarse: OwnerMap, fine: OwnerMap, ratio: int
) -> int:
    """Fine cells whose parent coarse cell lives on a different rank.

    Each such cell crosses ranks during prolongation (parent -> child
    ghost fill) and restriction (child -> parent update); domain-based
    partitioners drive this to zero by construction.
    """
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    expected = tuple(s * ratio for s in coarse.shape)
    if fine.shape != expected:
        raise ValueError(
            f"fine shape {fine.shape} does not equal coarse "
            f"{coarse.shape} x {ratio}"
        )
    scaled = coarse.corners * ratio
    return overlap_volume(scaled, fine.corners) - matched_volume(
        scaled, coarse.ranks, fine.corners, fine.ranks
    )


def migration_cells(prev: "PartitionResult", cur: "PartitionResult") -> int:
    """Redistribution traffic between two consecutive distributions.

    Berger--Colella regridding initializes every cell of the new hierarchy
    from the old one: a cell that existed at the same level copies its own
    old data; a newly-refined cell interpolates from its nearest refined
    ancestor in the old hierarchy (its parent column; level 0 always
    exists).  The *migrated* points are those whose data source lives on a
    different rank than their new owner — exactly the cross-processor
    traffic of the redistribution phase that the paper's relative-migration
    metric (section 4.1) measures.

    Counting only persisting-cell owner changes would under-count moving
    refinement fronts (their new cells dominate) and artificially cap
    migration at the hierarchy overlap; the data-source formulation avoids
    both.

    Sparse evaluation: the per-level *source map* (previous owner where
    the level persisted, else the refined ancestor source) is built by
    overlaying owner maps, and the migrated count is the new level's
    owned cells minus the rank-matched intersection volume with its
    source map.  Level 0's source map is the previous level-0 map
    itself: the overlays start at level 1.
    """
    total = 0
    src_c: np.ndarray | None = None
    src_r: np.ndarray | None = None
    src_shape: tuple[int, ...] | None = None
    for l in range(cur.nlevels):
        b = cur.maps[l]
        if src_c is None:
            if prev.maps[0].shape != b.shape:
                raise ValueError(
                    f"level 0 raster shapes differ: {prev.maps[0].shape} "
                    f"vs {b.shape}"
                )
            src_c = prev.maps[0].corners
            src_r = prev.maps[0].ranks
            src_shape = b.shape
        else:
            ratio = b.shape[0] // src_shape[0] if src_shape[0] else 0
            if ratio < 1 or b.shape != tuple(s * ratio for s in src_shape):
                raise ValueError(
                    f"level {l} shape {b.shape} not a multiple of level "
                    f"{l - 1} shape {src_shape}"
                )
            src_c = src_c * ratio
            src_shape = b.shape
            if l < prev.nlevels:
                pl = prev.maps[l]
                if pl.shape != b.shape:
                    raise ValueError(
                        f"level {l} raster shapes differ: {pl.shape} "
                        f"vs {b.shape}"
                    )
                src_c, src_r = overlay_corners(
                    pl.corners, pl.ranks, src_c, src_r
                )
        total += b.ncells - matched_volume(src_c, src_r, b.corners, b.ranks)
    return total

