"""The SAMR grid hierarchy: a stack of properly-nested refinement levels.

This is the ``H_t`` of the paper.  A hierarchy snapshot is exactly what the
trace files capture at each regrid step, and everything downstream — the
partitioners, the execution simulator and the penalties ``beta_m`` /
``beta_C`` / ``beta_L`` — consumes hierarchies through this class.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..geometry import Box, BoxList, block_overlaps, box_corners, paint_box
from .level import PatchLevel

__all__ = ["GridHierarchy"]


class GridHierarchy:
    """A properly-nested stack of :class:`PatchLevel` objects.

    Parameters
    ----------
    domain :
        The base-grid index box (level 0's index space), anchored at the
        origin.
    levels :
        Levels in increasing order; ``levels[0]`` must cover the whole
        ``domain`` (Berger--Colella base grid).

    Notes
    -----
    ``|H_t|`` in the paper — the *size* of the hierarchy used to normalize
    ``beta_m`` and the dimension-II grid-size factor — is the total number
    of grid points over all levels, :attr:`ncells`.
    """

    __slots__ = ("domain", "levels")

    def __init__(self, domain: Box, levels: Sequence[PatchLevel]) -> None:
        if domain.empty:
            raise ValueError("hierarchy domain must be non-empty")
        if any(l != 0 for l in domain.lo):
            raise ValueError("hierarchy domain must be anchored at the origin")
        levels = list(levels)
        if not levels:
            raise ValueError("hierarchy needs at least the base level")
        for expected, level in enumerate(levels):
            if level.index != expected:
                raise ValueError(
                    f"levels must be contiguous from 0; got index {level.index} "
                    f"at position {expected}"
                )
        self.domain = domain
        self.levels = tuple(levels)

    # -- container protocol ----------------------------------------------
    def __iter__(self) -> Iterator[PatchLevel]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> PatchLevel:
        return self.levels[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridHierarchy):
            return NotImplemented
        return self.domain == other.domain and self.levels == other.levels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(f"l{lev.index}:{lev.ncells}" for lev in self.levels)
        return f"GridHierarchy(domain={self.domain.shape}, [{sizes}])"

    # -- sizes --------------------------------------------------------------
    @property
    def nlevels(self) -> int:
        """Number of levels (including the base)."""
        return len(self.levels)

    @property
    def ndim(self) -> int:
        """Spatial dimensionality."""
        return self.domain.ndim

    @property
    def ncells(self) -> int:
        """``|H|``: total grid points across all levels."""
        return sum(level.ncells for level in self.levels)

    @property
    def workload(self) -> int:
        """Total computational work per coarse step: ``sum_l n_l * r^l``.

        The paper's 100 %-communication reference quantity (section 4.1):
        every grid point communicating at every local time step of a coarse
        step amounts to exactly this many point-steps.
        """
        return sum(level.workload for level in self.levels)

    @property
    def npatches(self) -> int:
        """Total patch count over all levels."""
        return sum(level.npatches for level in self.levels)

    def level_domain(self, level_index: int) -> Box:
        """Index-space box of level ``level_index`` (the refined domain)."""
        ratio = self.cumulative_ratio(level_index)
        return self.domain.refine(ratio)

    def cumulative_ratio(self, level_index: int) -> int:
        """Refinement ratio of level ``level_index`` relative to level 0."""
        if not 0 <= level_index < self.nlevels:
            raise ValueError(f"no level {level_index} in {self.nlevels}-level hierarchy")
        ratio = 1
        for level in self.levels[1 : level_index + 1]:
            ratio *= level.ratio
        return ratio

    def column_workloads(self, unit_size: int = 1) -> np.ndarray:
        """Workload of the refinement column above each atomic unit.

        Units are ``unit_size``-sided blocks of base cells, so the result
        has shape ``base_shape // unit_size``.  A unit weighs ``sum_l w_l *
        (refined cells of level l above the unit)`` with ``w_l`` the
        time-refinement weight: the work a rank inherits by owning that
        piece of the domain.  Domain-based partitioners weigh their units
        with it, Nature+Fable its Hues and Cores, and ``beta_L`` reads its
        localization at ``unit_size=1``.  One
        :func:`~repro.geometry.block_overlaps` call sums every level's
        patches, each level's blocks ``unit_size`` times its cumulative
        ratio wide: the volumes are integer-valued, so the float sums are
        exact and equal the dense ``block_sum`` of the level masks in
        ``tests/dense_oracle.py``.
        """
        if unit_size < 1:
            raise ValueError("unit_size must be >= 1")
        base_shape = self.domain.shape
        if any(s % unit_size for s in base_shape):
            raise ValueError(
                f"unit_size {unit_size} does not divide base shape {base_shape}"
            )
        rows = [box_corners(level.patches, self.ndim) for level in self.levels]
        counts = [len(r) for r in rows]
        blocks = [unit_size * self.cumulative_ratio(l.index) for l in self.levels]
        weights = [float(l.time_refinement_weight()) for l in self.levels]
        return block_overlaps(
            tuple(s // unit_size for s in base_shape),
            np.concatenate(rows),
            np.repeat(blocks, counts),
            np.repeat(weights, counts),
        )

    # -- masks --------------------------------------------------------------
    def refined_mask_on_base(self) -> np.ndarray:
        """Boolean raster on the *base* grid of cells refined by level >= 1.

        This is what Nature+Fable's Hue/Core separation is computed from:
        Hues are the unrefined complement, Cores the connected refined
        parts (with all overlaid levels attached, strictly domain-based).
        """
        mask = np.zeros(self.domain.shape, dtype=bool)
        if self.nlevels < 2:
            return mask
        ratio = self.cumulative_ratio(1)
        coarse = BoxList(self.levels[1].patches).coarsen(ratio)
        for box in coarse:
            paint_box(mask, box, True)  # type: ignore[arg-type]
        return mask

    # -- invariants -----------------------------------------------------------
    def validate(self, nesting_buffer: int = 0) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        * level 0 covers the domain exactly,
        * every level's patches are disjoint and inside the level domain,
        * every level ``l >= 1`` is nested in level ``l - 1`` (grown by
          ``nesting_buffer`` coarse cells, clipped to the domain).
        """
        base_cells = self.levels[0].ncells
        if base_cells != self.domain.ncells:
            raise ValueError(
                f"base level covers {base_cells} cells, domain has "
                f"{self.domain.ncells}"
            )
        for level in self.levels:
            level.validate()
            dom = self.level_domain(level.index)
            for patch in level:
                if not dom.contains_box(patch):
                    raise ValueError(f"patch {patch} outside level domain {dom}")
        for fine in self.levels[1:]:
            coarse = self.levels[fine.index - 1]
            coarse_dom = self.level_domain(coarse.index)
            parent_region = BoxList(
                b.grow(nesting_buffer).intersect(coarse_dom)
                for b in coarse.patches
                if b.grow(nesting_buffer).intersect(coarse_dom) is not None
            )
            fine_on_coarse = fine.patches.coarsen(fine.ratio)
            needed = fine_on_coarse.disjointified().ncells
            covered = parent_region.disjointified().intersect_volume(
                fine_on_coarse.disjointified()
            )
            if covered < needed:
                raise ValueError(
                    f"level {fine.index} not nested in level {coarse.index}: "
                    f"{needed - covered} coarse cells uncovered"
                )

    # -- construction helpers --------------------------------------------------
    @staticmethod
    def base_only(domain: Box, ratio: int = 2) -> "GridHierarchy":
        """A hierarchy with just the base grid covering ``domain``."""
        return GridHierarchy(domain, [PatchLevel(0, [domain], ratio=1)])

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        """JSON form of the full hierarchy snapshot."""
        return {
            "domain": self.domain.to_json(),
            "levels": [level.to_json() for level in self.levels],
        }

    @staticmethod
    def from_json(data: dict) -> "GridHierarchy":
        """Inverse of :meth:`to_json`."""
        return GridHierarchy(
            Box.from_json(data["domain"]),
            [PatchLevel.from_json(entry) for entry in data["levels"]],
        )
