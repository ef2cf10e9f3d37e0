"""Operations on collections of boxes (patch sets).

A Berger--Colella refinement level is a set of *pairwise-disjoint* boxes.
:class:`BoxList` wraps such a set: the trace generator builds each level
as one (clipped clusters, coalesced), and the hierarchy, the partitioners
and the paper's penalties read it.

The key numerical routine is :func:`intersection_volume`, the
``sum_i sum_j |A_i ∩ B_j|`` appearing (per level) in the data-migration
penalty ``beta_m`` of section 4.4.  For disjoint patch sets this equals the
volume of the intersection of the two unions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .box import Box

__all__ = [
    "BoxList",
    "intersection_volume",
    "coalesce_boxes",
]


def intersection_volume(a: Sequence[Box], b: Sequence[Box]) -> int:
    """Total cell count of pairwise intersections ``sum_ij |a_i ∩ b_j|``.

    For internally-disjoint ``a`` and ``b`` this is exactly
    ``|union(a) ∩ union(b)|``.  Delegates to
    :func:`~repro.geometry.ownermap.overlap_volume`, whose grid-bucket
    candidates prune large pair products to near-linear.
    """
    from .ownermap import overlap_volume

    a = [x for x in a if not x.empty]
    b = [x for x in b if not x.empty]
    if not a or not b:
        return 0
    corners_a = np.array(
        [tuple(x.lo) + tuple(x.hi) for x in a], dtype=np.int64
    )
    corners_b = np.array(
        [tuple(x.lo) + tuple(x.hi) for x in b], dtype=np.int64
    )
    return overlap_volume(corners_a, corners_b)


def coalesce_boxes(boxes: Sequence[Box]) -> list[Box]:
    """Greedily merge abutting boxes whose union is a box.

    Reduces patch counts after clipping; the result covers exactly the
    same cells.  Inputs must be pairwise disjoint.

    The scan is greedy and order-dependent: each pass walks the boxes in
    order, and each box not yet absorbed grows by absorbing, in index
    order, every later unabsorbed box it can coalesce with at the moment
    the scan reaches it; passes repeat until one merges nothing.  Two
    disjoint boxes coalesce exactly when they share the extents of every
    axis but one and abut along it, so a pass finds each merge partner
    through a dict keyed on that axis, the other axes' extents and the
    abutting face, instead of testing every later box.
    """
    work = [b for b in boxes if not b.empty]
    merged = True
    while merged:
        work, merged = _coalesce_pass(work)
    return work


def _coalesce_pass(work: list[Box]) -> tuple[list[Box], bool]:
    """One greedy pass of :func:`coalesce_boxes`: the boxes it leaves,
    and whether it merged any."""
    n = len(work)
    if n < 2:
        return work, False
    ndim = work[0].ndim
    # (axis, other extents, face) -> index of the box whose lower /
    # upper face it is; disjoint boxes never share a key.
    lower: dict[tuple, int] = {}
    upper: dict[tuple, int] = {}
    for j, box in enumerate(work):
        lo, hi = box.lo, box.hi
        for d in range(ndim):
            rest = lo[:d] + lo[d + 1:] + hi[:d] + hi[d + 1:]
            lower[d, rest, lo[d]] = j
            upper[d, rest, hi[d]] = j
    used = [False] * n
    out: list[Box] = []
    for i, box in enumerate(work):
        if used[i]:
            continue
        lo, hi = box.lo, box.hi
        scan = i  # the scan resumes after the last box absorbed
        while True:
            # The next absorbed box is the first unused one after the
            # scan position that abuts the accumulator face to face.
            nxt = n
            for d in range(ndim):
                rest = lo[:d] + lo[d + 1:] + hi[:d] + hi[d + 1:]
                above = lower.get((d, rest, hi[d]))
                below = upper.get((d, rest, lo[d]))
                for j in (above, below):
                    if j is not None and scan < j < nxt and not used[j]:
                        nxt = j
            if nxt == n:
                break
            used[nxt] = True
            other = work[nxt]
            lo = tuple(map(min, lo, other.lo))
            hi = tuple(map(max, hi, other.hi))
            scan = nxt
        out.append(box if scan == i else Box(lo, hi))
    return out, len(out) < n


class BoxList:
    """An ordered collection of pairwise-disjoint boxes (one AMR level).

    Disjointness is the caller's responsibility on construction (it is what
    Berger--Colella clustering guarantees); :meth:`validate_disjoint` checks
    it explicitly and is used by the test suite and the hierarchy
    constructors.
    """

    __slots__ = ("_boxes", "_ncells")

    def __init__(self, boxes: Iterable[Box] = ()) -> None:
        self._boxes: tuple[Box, ...] = tuple(b for b in boxes if not b.empty)
        self._ncells: int | None = None

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)

    def __getitem__(self, i: int) -> Box:
        return self._boxes[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxList):
            return NotImplemented
        return self._boxes == other._boxes

    def __hash__(self) -> int:
        return hash(self._boxes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxList({len(self._boxes)} boxes, {self.ncells} cells)"

    # -- queries -------------------------------------------------------------
    @property
    def boxes(self) -> tuple[Box, ...]:
        """The underlying boxes."""
        return self._boxes

    @property
    def ncells(self) -> int:
        """Total cells (sum over disjoint boxes), summed on first read:
        the list is immutable."""
        if self._ncells is None:
            self._ncells = sum(b.ncells for b in self._boxes)
        return self._ncells

    @property
    def surface_cells(self) -> int:
        """Sum of per-box hull faces (upper bound on exposed surface)."""
        return sum(b.surface_cells for b in self._boxes)

    def validate_disjoint(self) -> None:
        """Raise ``ValueError`` if any two member boxes overlap."""
        for i, a in enumerate(self._boxes):
            for b in self._boxes[i + 1 :]:
                if a.intersects(b):
                    raise ValueError(f"overlapping boxes: {a} and {b}")

    def contains_point(self, point: Sequence[int]) -> bool:
        """True if any member box contains ``point``."""
        return any(b.contains_point(point) for b in self._boxes)

    # -- algebra ---------------------------------------------------------
    def intersect_volume(self, other: "BoxList | Sequence[Box]") -> int:
        """``sum_ij |a_i ∩ b_j|`` against another box collection."""
        other_boxes = other.boxes if isinstance(other, BoxList) else tuple(other)
        return intersection_volume(self._boxes, other_boxes)

    def coalesced(self) -> "BoxList":
        """Greedy merge of abutting boxes (same cells, fewer boxes)."""
        return BoxList(coalesce_boxes(self._boxes))

    def refine(self, ratio: int) -> "BoxList":
        """Refine every member by ``ratio``."""
        return BoxList(b.refine(ratio) for b in self._boxes)

    def coarsen(self, ratio: int) -> "BoxList":
        """Coarsen every member by ``ratio`` (outward rounding).

        Note: coarsened boxes of a disjoint set may overlap; callers that
        need disjointness should re-normalize via :meth:`disjointified`.
        """
        return BoxList(b.coarsen(ratio) for b in self._boxes)

    def disjointified(self) -> "BoxList":
        """Rebuild as a disjoint set covering the same union."""
        out: list[Box] = []
        for b in self._boxes:
            fragments = [b]
            for prior in out:
                nxt: list[Box] = []
                for frag in fragments:
                    nxt.extend(frag.subtract(prior))
                fragments = nxt
                if not fragments:
                    break
            out.extend(fragments)
        return BoxList(out)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> list[list[list[int]]]:
        """JSON form: list of ``[[lo...], [hi...]]`` entries."""
        return [b.to_json() for b in self._boxes]

    @staticmethod
    def from_json(data: Sequence[Sequence[Sequence[int]]]) -> "BoxList":
        """Inverse of :meth:`to_json`."""
        return BoxList(Box.from_json(entry) for entry in data)
