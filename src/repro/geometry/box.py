"""Integer box calculus for structured AMR index spaces.

A :class:`Box` is an axis-aligned, half-open rectangular region
``[lo, hi)`` of an n-dimensional integer index space.  Boxes are the
fundamental geometric object of Berger--Colella SAMR: every grid patch at
every refinement level is a box in the index space of that level, and the
paper's data-migration penalty ``beta_m`` (Part II, section 4.4) is defined
entirely in terms of pairwise box intersections between two
time-consecutive hierarchies.

Boxes are immutable and hashable so they can be used as dictionary keys
(e.g. owner maps in the partitioners) and stored in sets.  All operations
return new boxes.

Conventions
-----------
* ``lo`` and ``hi`` are tuples of Python ints; ``lo[d] <= hi[d]``.
* A box with ``lo[d] == hi[d]`` in any dimension is *empty* (zero cells).
* Refinement by an integer ratio ``r`` maps cell ``i`` at the coarse level
  to cells ``[i*r, (i+1)*r)`` at the fine level; coarsening uses floor
  division and is the left inverse of refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Box", "bounding_box"]


@dataclass(frozen=True, slots=True)
class Box:
    """A half-open integer box ``[lo, hi)`` in n-dimensional index space.

    Parameters
    ----------
    lo :
        Inclusive lower corner, one int per dimension.
    hi :
        Exclusive upper corner, one int per dimension.

    Raises
    ------
    ValueError
        If ``lo`` and ``hi`` have different lengths, are empty, or if any
        ``hi[d] < lo[d]``.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError(f"lo and hi must have equal length, got {lo} / {hi}")
        if len(lo) == 0:
            raise ValueError("boxes must have at least one dimension")
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError(f"inverted box: lo={lo} hi={hi}")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        """Extent (number of cells) along each dimension."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def ncells(self) -> int:
        """Total number of cells; 0 for an empty box."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def empty(self) -> bool:
        """True if the box contains no cells."""
        return any(h == l for l, h in zip(self.lo, self.hi))

    @property
    def surface_cells(self) -> int:
        """Number of boundary *faces* of the box (cell faces on the hull).

        For a non-empty box this is ``sum_d 2 * prod_{e != d} shape[e]``; it
        is the natural worst-case ghost-communication volume for a patch
        with a one-cell-wide ghost layer and is used by the Part-I
        communication-penalty reconstruction.
        """
        if self.empty:
            return 0
        shape = self.shape
        total = 0
        for d in range(self.ndim):
            face = 1
            for e, s in enumerate(shape):
                if e != d:
                    face *= s
            total += 2 * face
        return total

    def contains_point(self, point: Sequence[int]) -> bool:
        """True if the integer cell ``point`` lies inside the box."""
        if len(point) != self.ndim:
            raise ValueError("dimension mismatch")
        return all(l <= p < h for l, p, h in zip(self.lo, point, self.hi))

    def contains_box(self, other: "Box") -> bool:
        """True if ``other`` is entirely inside (or equal to) this box.

        An empty ``other`` is contained in everything.
        """
        self._check_ndim(other)
        if other.empty:
            return True
        return all(
            sl <= ol and oh <= sh
            for sl, ol, oh, sh in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def _check_ndim(self, other: "Box") -> None:
        if self.ndim != other.ndim:
            raise ValueError(
                f"dimension mismatch: {self.ndim}-d box vs {other.ndim}-d box"
            )

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "Box") -> "Box | None":
        """Intersection with another box, or ``None`` if disjoint/empty.

        This is the primitive underlying the paper's ``beta_m`` penalty:
        ``|G^{l,i}_{t-1} ∩ G^{l,j}_t|`` is
        ``a.intersect(b).ncells`` (0 when ``None``).
        """
        self._check_ndim(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def intersects(self, other: "Box") -> bool:
        """True if the two boxes share at least one cell."""
        return self.intersect(other) is not None

    def intersection_ncells(self, other: "Box") -> int:
        """Number of cells in the intersection (0 if disjoint)."""
        self._check_ndim(other)
        n = 1
        for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            w = min(sh, oh) - max(sl, ol)
            if w <= 0:
                return 0
            n *= w
        return n

    def subtract(self, other: "Box") -> list["Box"]:
        """Set difference ``self \\ other`` as a list of disjoint boxes.

        Uses the standard dimension-sweep decomposition: at most ``2*ndim``
        result boxes, all disjoint, whose union is exactly the difference.
        """
        inter = self.intersect(other)
        if inter is None:
            return [] if self.empty else [self]
        if inter == self:
            return []
        pieces: list[Box] = []
        lo = list(self.lo)
        hi = list(self.hi)
        for d in range(self.ndim):
            if lo[d] < inter.lo[d]:
                plo, phi = list(lo), list(hi)
                phi[d] = inter.lo[d]
                pieces.append(Box(tuple(plo), tuple(phi)))
            if inter.hi[d] < hi[d]:
                plo, phi = list(lo), list(hi)
                plo[d] = inter.hi[d]
                pieces.append(Box(tuple(plo), tuple(phi)))
            # Narrow the remaining slab to the intersection range in dim d.
            lo[d] = inter.lo[d]
            hi[d] = inter.hi[d]
        return pieces

    def merge_bounding(self, other: "Box") -> "Box":
        """Smallest box containing both operands (bounding-box union)."""
        self._check_ndim(other)
        if self.empty:
            return other
        if other.empty:
            return self
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)

    def can_coalesce(self, other: "Box") -> bool:
        """True if the union of the boxes is itself a box.

        Two boxes coalesce when they agree in all dimensions except one, in
        which they abut or overlap.
        """
        self._check_ndim(other)
        if self.empty or other.empty:
            return True
        diff_dim = -1
        for d in range(self.ndim):
            if self.lo[d] != other.lo[d] or self.hi[d] != other.hi[d]:
                if diff_dim >= 0:
                    return False
                diff_dim = d
        if diff_dim < 0:
            return True  # identical boxes
        d = diff_dim
        return self.lo[d] <= other.hi[d] and other.lo[d] <= self.hi[d]

    # ------------------------------------------------------------------
    # Index-space maps
    # ------------------------------------------------------------------
    def refine(self, ratio: int) -> "Box":
        """Map to the index space of a level refined by ``ratio``."""
        if ratio < 1:
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        return Box(
            tuple(l * ratio for l in self.lo), tuple(h * ratio for h in self.hi)
        )

    def coarsen(self, ratio: int) -> "Box":
        """Map to the index space of a level coarsened by ``ratio``.

        The result covers every coarse cell touched by this box (outward
        rounding), so ``b.coarsen(r).refine(r).contains_box(b)`` always
        holds.
        """
        if ratio < 1:
            raise ValueError(f"coarsening ratio must be >= 1, got {ratio}")
        return Box(
            tuple(l // ratio for l in self.lo),
            tuple(-((-h) // ratio) for h in self.hi),
        )

    def grow(self, width: int | Sequence[int]) -> "Box":
        """Grow (``width > 0``) or shrink (``width < 0``) by cells per side."""
        if isinstance(width, int):
            widths: tuple[int, ...] = (width,) * self.ndim
        else:
            widths = tuple(int(w) for w in width)
            if len(widths) != self.ndim:
                raise ValueError("width length must match ndim")
        lo = tuple(l - w for l, w in zip(self.lo, widths))
        hi = tuple(h + w for h, w in zip(self.hi, widths))
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError("shrink produced an inverted box")
        return Box(lo, hi)

    def shift(self, offset: Sequence[int]) -> "Box":
        """Translate by an integer offset per dimension."""
        if len(offset) != self.ndim:
            raise ValueError("offset length must match ndim")
        return Box(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )

    # ------------------------------------------------------------------
    # Decomposition helpers
    # ------------------------------------------------------------------
    def split(self, dim: int, cut: int) -> tuple["Box", "Box"]:
        """Split along ``dim`` at index ``cut`` into lower and upper halves.

        ``cut`` must satisfy ``lo[dim] <= cut <= hi[dim]``; either half may
        be empty when the cut sits at an edge.
        """
        if not 0 <= dim < self.ndim:
            raise ValueError(f"dim {dim} out of range for {self.ndim}-d box")
        if not self.lo[dim] <= cut <= self.hi[dim]:
            raise ValueError(
                f"cut {cut} outside [{self.lo[dim]}, {self.hi[dim]}] in dim {dim}"
            )
        lo_hi = list(self.hi)
        lo_hi[dim] = cut
        hi_lo = list(self.lo)
        hi_lo[dim] = cut
        return Box(self.lo, tuple(lo_hi)), Box(tuple(hi_lo), self.hi)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({list(self.lo)}..{list(self.hi)})"

    def to_json(self) -> list[list[int]]:
        """JSON-serializable form ``[[lo...], [hi...]]``."""
        return [list(self.lo), list(self.hi)]

    @staticmethod
    def from_json(data: Sequence[Sequence[int]]) -> "Box":
        """Inverse of :meth:`to_json`."""
        lo, hi = data
        return Box(tuple(int(v) for v in lo), tuple(int(v) for v in hi))


def bounding_box(boxes: Iterable[Box]) -> Box | None:
    """Smallest box containing every box in ``boxes`` (``None`` if empty)."""
    result: Box | None = None
    for b in boxes:
        if b.empty:
            continue
        result = b if result is None else result.merge_bounding(b)
    return result
