"""The partitioner-centric penalties: ``beta_m``, ``beta_C`` and ``beta_L``.

This module is the paper's primary contribution.

**Dimension III — data-migration penalty** ``beta_m`` (section 4.4)::

    beta_m(H_{t-1}, H_t) = 1 - (1/|H_t|) sum_l sum_i sum_j |G^{l,i}_{t-1} x G^{l,j}_t|

where ``x`` denotes grid intersection, ``G^l_t`` is the patch set of level
``l`` at time ``t`` and ``|H_t|`` the total number of grid points.  Each
pair of time-consecutive hierarchies maps onto a value in ``[0, 1]``,
*independently of any previous mapping* (absolute, not relative) and
*ab initio* — from the unpartitioned hierarchy alone.  A large
intersection means little change (low migration potential); the optimal
amount of data migration is zero.

The denominator choice (``|H_t|``, not ``|H_{t-1}|``) follows the paper's
argument: growing grids migrate much of the small old grid (suggesting the
larger ``|H_t|`` to damp the value), and shrinking grids mostly *delete*
rather than move (again suggesting ``|H_t|``).  The alternative
denominators are provided for the ablation experiment.

**Dimension I inputs** ``beta_C`` and ``beta_L`` are reconstructions of
Part I (LACSI 2003), which is not part of the provided text; Part II
constrains them as follows and the reconstructions below honour every
constraint:

* both are ab-initio functions of the unpartitioned hierarchy in [0, 1];
* ``beta_C`` is a *worst-case* communication estimate — "generally a bit
  aggressive, it jumps at potentially communication-heavy grids" and
  upper-bounds what a hybrid partitioner actually produces (section 5.2);
* ``beta_L`` captures the inherent load-imbalance risk that strictly
  domain-based decompositions face on localized, deep refinement
  (section 3.1);
* dimension I compares them scale-invariantly: "beta_L = beta_C = 0.1
  would yield the same result as beta_L = beta_C = 0.4" (section 4.3).

``beta_m``'s patch-set intersections prune large pair queries with
the slab-sweep join, and ``beta_C`` and ``beta_L`` are sums over
patches, so evaluating the dynamic state stays near-linear in the patch
count at every scale.
"""

from __future__ import annotations

import numpy as np

from ..geometry import intersection_volume
from ..hierarchy import GridHierarchy

__all__ = [
    "migration_penalty",
    "communication_penalty",
    "load_imbalance_penalty",
    "dimension1",
]


def migration_penalty(
    prev: GridHierarchy,
    cur: GridHierarchy,
    denominator: str = "current",
) -> float:
    """``beta_m`` of section 4.4 — the dimension-III coordinate.

    Parameters
    ----------
    prev, cur :
        The hierarchies at time-steps ``t-1`` and ``t``.
    denominator :
        ``"current"`` (``|H_t|``, the paper's choice), ``"previous"``
        (``|H_{t-1}|``) or ``"max"`` — the latter two exist for the
        ablation benchmark.

    Returns
    -------
    float in [0, 1]
        0 for identical hierarchies; 1 when nothing overlaps.
    """
    overlap = 0
    for l in range(min(prev.nlevels, cur.nlevels)):
        overlap += intersection_volume(
            prev.levels[l].patches.boxes, cur.levels[l].patches.boxes
        )
    if denominator == "current":
        denom = cur.ncells
    elif denominator == "previous":
        denom = prev.ncells
    elif denominator == "max":
        denom = max(cur.ncells, prev.ncells)
    else:
        raise ValueError(
            f"denominator must be 'current', 'previous' or 'max', got "
            f"{denominator!r}"
        )
    if denom == 0:
        return 0.0
    value = 1.0 - overlap / denom
    # Float guard only; the set inequality overlap <= denom holds exactly.
    return float(min(1.0, max(0.0, value)))


def communication_penalty(
    hierarchy: GridHierarchy,
    nprocs: int = 16,
    ghost_width: int = 1,
    fragmentation: float = 6.0,
) -> float:
    """``beta_C``: worst-case relative communication of the hierarchy.

    The worst-case communication of a coarse step has two sources, both
    computable ab initio from the hierarchy plus the system parameter
    ``nprocs`` (the model samples "application parameters (such as the
    grid hierarchy) and system parameters", contribution 1):

    * every *patch boundary* face may cross ranks (patch-to-patch copies
      are potential communication) — the surface term, which counts each
      patch's hull faces, so a face two abutting patches share counts
      from both sides;
    * a ``P``-way decomposition of a level with ``A_l`` cells must cut it
      somewhere; the isoperimetric bound for compact parts gives an
      internal cut surface of about ``fragmentation * sqrt(P * A_l)``
      faces — the fragmentation term.

    Each potential face communicates ``ghost_width`` cells in both
    directions at every local step; normalizing by the workload (the
    paper's 100 %-communication reference, section 4.1) yields a
    grid-relative value that is superimposed on the measured relative
    communication "without any scaling" (section 5.1.4).  By construction
    the estimate is aggressive — "``beta_C`` reflects a worst-case
    scenario" that a locality-aware hybrid partitioner undercuts
    (section 5.2).

    Parameters
    ----------
    nprocs :
        Processor count of the system state being classified.
    fragmentation :
        Prefactor of the isoperimetric cut term (0 disables it).
    """
    if ghost_width < 0:
        raise ValueError("ghost_width must be >= 0")
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if fragmentation < 0:
        raise ValueError("fragmentation must be >= 0")
    potential = 0.0
    for level in hierarchy:
        w = level.time_refinement_weight()
        area = level.patches.surface_cells
        cut = fragmentation * np.sqrt(nprocs * level.ncells)
        potential += (area + cut) * ghost_width * w
    workload = hierarchy.workload
    if workload == 0:
        return 0.0
    return float(min(1.0, potential / workload))


def load_imbalance_penalty(hierarchy: GridHierarchy) -> float:
    """``beta_L``: inherent load-imbalance risk of the refinement pattern.

    Strictly domain-based partitioners assign whole base-grid columns, so
    the best achievable balance is bounded by how *localized* the column
    workload is (section 3.1: "a small base-grid, many processors, and
    many levels of refinement cause domain-based techniques to generate
    intractable amounts of load imbalance ... the case improves with
    scattered refinement").  We measure localization as one minus the
    mean-to-max ratio of per-column workloads:

    * uniform refinement -> all columns equal -> ``beta_L = 0``;
    * one deep needle of refinement -> max column dwarfs the mean ->
      ``beta_L -> 1``.
    """
    work = hierarchy.column_workloads()
    peak = work.max()
    if peak == 0:
        return 0.0
    return float(1.0 - work.mean() / peak)


def dimension1(beta_l: float, beta_c: float) -> float:
    """Dimension I coordinate: load balance vs communication.

    Scale-invariant comparison (section 4.3's "disregards the amplitude"):
    0 means communication is the sole concern, 1 means load balance is.
    0.5 when the penalties agree — including the degenerate all-zero case.
    """
    for name, v in (("beta_l", beta_l), ("beta_c", beta_c)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    total = beta_l + beta_c
    if total == 0.0:
        return 0.5
    return beta_l / total
