"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.geometry import Box, BoxList
from repro.hierarchy import GridHierarchy, PatchLevel


def boxes_nd(ndim: int = 2, max_coord: int = 32, allow_empty: bool = False):
    """Strategy for ``ndim``-dimensional boxes within ``[0, max_coord)**ndim``."""
    if ndim < 1:
        raise ValueError("ndim must be >= 1")

    coord = st.integers(min_value=0, max_value=max_coord)
    pair = st.tuples(coord, coord)

    def make(pairs):
        lo = tuple(min(a, b) for a, b in pairs)
        hi = tuple(max(a, b) for a, b in pairs)
        return Box(lo, hi)

    strat = st.builds(make, st.tuples(*([pair] * ndim)))
    if not allow_empty:
        strat = strat.filter(lambda b: not b.empty)
    return strat


def boxes_2d(max_coord: int = 32, allow_empty: bool = False):
    """Strategy for 2-d boxes within ``[0, max_coord)^2``."""
    return boxes_nd(2, max_coord=max_coord, allow_empty=allow_empty)


def disjoint_boxlists(max_boxes: int = 6, max_coord: int = 24, ndim: int = 2):
    """Strategy for internally-disjoint box sets (subtract as we build)."""

    @st.composite
    def build(draw):
        raw = draw(
            st.lists(
                boxes_nd(ndim, max_coord=max_coord), max_size=max_boxes
            )
        )
        out: list[Box] = []
        for b in raw:
            frags = [b]
            for prior in out:
                nxt = []
                for f in frags:
                    nxt.extend(f.subtract(prior))
                frags = nxt
            out.extend(frags)
        return BoxList(out)

    return build()


def nested_hierarchies_2d(
    max_levels: int = 3, max_patches: int = 4, even: bool = True
):
    """Strategy for properly nested 2-D hierarchies with ratio-2 levels.

    Base sides run from 8 to 24 cells; ``even=False`` makes at least one
    side odd.  Each refined level draws up to ``max_patches`` boxes, each
    inside the refinement of one patch of the level below, and subtracts
    the earlier ones from it so the level's patches are disjoint.
    """

    @st.composite
    def build(draw):
        sides = st.integers(4, 12).map(lambda n: 2 * n)
        shape = [draw(sides), draw(sides)]
        if not even:
            axis = draw(st.integers(0, 1))
            shape[axis] = draw(st.integers(4, 11).map(lambda n: 2 * n + 1))
        domain = Box((0, 0), tuple(shape))
        levels = [PatchLevel(0, [domain], ratio=1)]
        for index in range(1, draw(st.integers(1, max_levels))):
            parents = [box.refine(2) for box in levels[-1].patches]
            patches: list[Box] = []
            for _ in range(draw(st.integers(1, max_patches))):
                parent = draw(st.sampled_from(parents))
                lo, hi = [], []
                for plo, phi in zip(parent.lo, parent.hi):
                    a = draw(st.integers(plo, phi - 1))
                    lo.append(a)
                    hi.append(draw(st.integers(a + 1, phi)))
                frags = [Box(tuple(lo), tuple(hi))]
                for prior in patches:
                    frags = [f for frag in frags for f in frag.subtract(prior)]
                patches.extend(frags)
            levels.append(PatchLevel(index, patches, ratio=2))
        return GridHierarchy(domain, levels)

    return build()


@st.composite
def nested_hierarchies(draw, ndim: int = 2, side: int | None = None):
    """Random properly-nested factor-2 hierarchies (``side`` drawn from
    4 or 8 unless given)."""
    side = side or draw(st.sampled_from([4, 8]))
    domain = Box((0,) * ndim, (side,) * ndim)
    levels = [PatchLevel(0, [domain], ratio=1)]
    parent = BoxList([domain])
    depth = draw(st.integers(min_value=1, max_value=2))
    for l in range(1, depth + 1):
        refined_parent = parent.refine(2)
        raw = draw(
            disjoint_boxlists(
                max_boxes=4, max_coord=side * 2**l, ndim=ndim
            )
        )
        clipped: list[Box] = []
        for b in raw:
            for p in refined_parent:
                piece = b.intersect(p)
                if piece is not None:
                    clipped.append(piece)
        patches = BoxList(clipped).disjointified().coalesced()
        if patches.ncells == 0:
            break
        levels.append(PatchLevel(l, patches, ratio=2))
        parent = patches
    return GridHierarchy(domain, levels)
