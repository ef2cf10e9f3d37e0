"""Operations on collections of boxes (patch sets).

A Berger--Colella refinement level is a set of *pairwise-disjoint* boxes.
:class:`BoxList` wraps such a set and provides the union-area, subtraction
and intersection-sum operations that the partitioners, the execution
simulator and the paper's penalties are built from.

The key numerical routine is :func:`intersection_volume`, the
``sum_i sum_j |A_i ∩ B_j|`` appearing (per level) in the data-migration
penalty ``beta_m`` of section 4.4.  For disjoint patch sets this equals the
volume of the intersection of the two unions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .box import Box, bounding_box

__all__ = [
    "BoxList",
    "intersection_volume",
    "union_ncells",
    "subtract_boxes",
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


def union_ncells(boxes: Sequence[Box]) -> int:
    """Number of cells in the union of possibly-overlapping boxes.

    Inclusion-exclusion via recursive subtraction: each box contributes the
    part of it not covered by earlier boxes.  For disjoint inputs this is
    simply the sum of ``ncells``.
    """
    total = 0
    seen: list[Box] = []
    for box in boxes:
        if box.empty:
            continue
        fragments = [box]
        for prior in seen:
            nxt: list[Box] = []
            for frag in fragments:
                nxt.extend(frag.subtract(prior))
            fragments = nxt
            if not fragments:
                break
        total += sum(f.ncells for f in fragments)
        seen.append(box)
    return total


def subtract_boxes(base: Sequence[Box], holes: Sequence[Box]) -> list[Box]:
    """Set difference ``union(base) \\ union(holes)`` as disjoint boxes.

    ``base`` must be internally disjoint; the result is then disjoint too.
    """
    fragments = [b for b in base if not b.empty]
    for hole in holes:
        if hole.empty:
            continue
        nxt: list[Box] = []
        for frag in fragments:
            nxt.extend(frag.subtract(hole))
        fragments = nxt
        if not fragments:
            break
    return fragments


def coalesce_boxes(boxes: Sequence[Box]) -> list[Box]:
    """Greedily merge abutting boxes whose union is a box.

    Reduces patch counts after subtraction; result covers exactly the same
    cells (inputs must be disjoint).
    """
    work = [b for b in boxes if not b.empty]
    merged = True
    while merged:
        merged = False
        out: list[Box] = []
        used = [False] * len(work)
        for i, bi in enumerate(work):
            if used[i]:
                continue
            acc = bi
            for j in range(i + 1, len(work)):
                if used[j]:
                    continue
                bj = work[j]
                if acc.can_coalesce(bj):
                    acc = acc.merge_bounding(bj)
                    used[j] = True
                    merged = True
            out.append(acc)
        work = out
    return work


class BoxList:
    """An ordered collection of pairwise-disjoint boxes (one AMR level).

    Disjointness is the caller's responsibility on construction (it is what
    Berger--Colella clustering guarantees); :meth:`validate_disjoint` checks
    it explicitly and is used by the test suite and the hierarchy
    constructors.
    """

    __slots__ = ("_boxes",)

    def __init__(self, boxes: Iterable[Box] = ()) -> None:
        self._boxes: tuple[Box, ...] = tuple(b for b in boxes if not b.empty)

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
        """Total cells (sum over disjoint boxes)."""
        return sum(b.ncells for b in self._boxes)

    @property
    def surface_cells(self) -> int:
        """Sum of per-box hull faces (upper bound on exposed surface)."""
        return sum(b.surface_cells for b in self._boxes)

    def bounding_box(self) -> Box | None:
        """Smallest single box covering every member."""
        return bounding_box(self._boxes)

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

    def intersect_box(self, box: Box) -> "BoxList":
        """Clip every member to ``box``."""
        out = []
        for b in self._boxes:
            c = b.intersect(box)
            if c is not None:
                out.append(c)
        return BoxList(out)

    def subtract(self, holes: "BoxList | Sequence[Box]") -> "BoxList":
        """Remove ``holes`` from the union, returning disjoint fragments."""
        hole_boxes = holes.boxes if isinstance(holes, BoxList) else tuple(holes)
        return BoxList(subtract_boxes(self._boxes, hole_boxes))

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
