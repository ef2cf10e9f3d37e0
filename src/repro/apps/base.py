"""Shared machinery for the four SAMR application kernels.

The paper's validation traces come from single-processor runs of four
"real-world" kernels (section 5.1.1): numerical relativity (SC2D), oil
reservoir simulation (BL2D), compressible turbulence (RM2D) and a 2-D
transport benchmark (TP2D).  We do not have the original GrACE/Cactus/
IPARS/VTF binaries, so each kernel is rebuilt as a *shadow-grid* PDE
solver: the equation is solved on a uniform grid, and at each regrid step
an error indicator is thresholded level by level, clustered with
Berger--Rigoutsos, and stacked into a properly-nested factor-2 hierarchy —
exactly the information the original traces record (section 5.1.1).

The experimental parameters mirror the paper: 5 levels of factor-2
refinement in space and time, regridding every 4 steps, 100 time-steps,
granularity 2 (section 5.1.1).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace

import numpy as np

from ..clustering import (
    ClusterParams,
    buffer_flags,
    cluster_flags,
    gradient_indicator,
)
from ..geometry import Box, BoxList, bounding_box, rasterize_mask
from ..hierarchy import GridHierarchy, PatchLevel
from ..telemetry import span
from ..trace import Trace, TraceStep

__all__ = ["ShadowApplication", "TraceGenConfig", "build_hierarchy", "generate_trace"]


@dataclass(frozen=True, slots=True)
class TraceGenConfig:
    """Trace-generation parameters (paper defaults, section 5.1.1).

    Parameters
    ----------
    base_shape :
        Base-grid (level 0) cell counts.
    max_levels :
        Hierarchy depth including the base (paper: 5).
    refine_ratio :
        Space and time refinement factor per level (paper: 2).
    nsteps :
        Coarse time-steps to run (paper: 100).
    regrid_interval :
        Coarse steps between regrids (paper: 4).
    flag_threshold :
        Indicator threshold for level-1 flags, in ``[0, 1]``.
    threshold_growth :
        Multiplier applied per deeper level — deeper levels keep only the
        strongest features.
    buffer_width :
        Flag dilation in *level-1 cells* before clustering; the physical
        buffer width is held constant across levels (width in level-``l``
        cells grows with the refinement ratio), matching how production
        SAMR codes keep features inside patches between regrids.
    cluster :
        Berger--Rigoutsos knobs (paper granularity: 2).
    """

    base_shape: tuple[int, ...] = (32, 32)
    max_levels: int = 5
    refine_ratio: int = 2
    nsteps: int = 100
    regrid_interval: int = 4
    flag_threshold: float = 0.10
    threshold_growth: float = 1.3
    buffer_width: int = 2
    cluster: ClusterParams = field(
        default_factory=lambda: ClusterParams(efficiency=0.75, granularity=2)
    )

    def __post_init__(self) -> None:
        if len(self.base_shape) < 1 or any(s < 1 for s in self.base_shape):
            raise ValueError("base_shape must have positive extents")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.refine_ratio < 2:
            raise ValueError("refine_ratio must be >= 2")
        if self.nsteps < 1 or self.regrid_interval < 1:
            raise ValueError("nsteps and regrid_interval must be >= 1")
        if not 0.0 < self.flag_threshold < 1.0:
            raise ValueError("flag_threshold must be in (0, 1)")
        if self.threshold_growth < 1.0:
            raise ValueError("threshold_growth must be >= 1")
        if self.cluster.ndim != self.ndim:
            # Keep the clustering knobs in the spatial dimension of the
            # workload without forcing every caller to thread it by hand.
            object.__setattr__(
                self, "cluster", replace(self.cluster, ndim=self.ndim)
            )

    @property
    def ndim(self) -> int:
        """Spatial dimensionality of the workload."""
        return len(self.base_shape)

    def level_shape(self, level: int) -> tuple[int, ...]:
        """Cell counts of level ``level``'s index space."""
        r = self.refine_ratio**level
        return tuple(s * r for s in self.base_shape)

    def small(self) -> "TraceGenConfig":
        """A cheap variant for unit tests (shallow, short, coarse).

        Dimension-preserving: 2-D shrinks to ``16**2`` base cells, higher
        dimensions to ``8**ndim``.
        """
        side = 16 if self.ndim == 2 else 8
        return replace(
            self, base_shape=(side,) * self.ndim, max_levels=3, nsteps=12
        )


class ShadowApplication(abc.ABC):
    """A PDE kernel solved on a uniform shadow grid.

    Subclasses implement one coarse time-step of the physics and expose the
    scalar field the error indicator is computed from.  The shadow
    resolution is independent of the hierarchy depth; indicators are
    resampled onto each level's index space.
    """

    #: identifier used as the trace name ("tp2d", "bl2d", ...)
    name: str = "shadow"

    #: spatial dimensionality of the kernel (workload registries key off it)
    ndim: int = 2

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, ...]:
        """Shadow-grid cell counts (one extent per spatial dimension)."""

    @abc.abstractmethod
    def advance(self) -> None:
        """Advance the solution by one coarse time-step."""

    @abc.abstractmethod
    def indicator_field(self) -> np.ndarray:
        """Scalar field whose gradients drive refinement (shadow grid)."""

    @property
    @abc.abstractmethod
    def time(self) -> float:
        """Current physical time."""


def _resample(array: np.ndarray, target: tuple[int, ...], reduce: str) -> np.ndarray:
    """Resample a shadow-grid array onto a level's index space.

    Shapes must be related by integer factors per axis.  Downsampling
    reduces blocks with ``max`` (conservative for indicators); upsampling
    repeats values.
    """
    if array.ndim != len(target):
        raise ValueError(f"cannot resample {array.ndim}-d array to {target}")
    out = array
    for axis in range(array.ndim):
        src, dst = out.shape[axis], target[axis]
        if src == dst:
            continue
        if dst > src:
            if dst % src:
                raise ValueError(f"incompatible shapes {out.shape} -> {target}")
            out = np.repeat(out, dst // src, axis=axis)
        else:
            if src % dst:
                raise ValueError(f"incompatible shapes {out.shape} -> {target}")
            factor = src // dst
            shape = list(out.shape)
            shape[axis] = dst
            shape.insert(axis + 1, factor)
            blocks = out.reshape(shape)
            if reduce == "max":
                out = blocks.max(axis=axis + 1)
            elif reduce == "any":
                out = blocks.any(axis=axis + 1)
            else:
                raise ValueError(f"unknown reduction {reduce!r}")
    return out


def _flag_window(
    flagged: np.ndarray,
    shape: tuple[int, ...],
    win_lo: tuple[int, ...],
    win_hi: tuple[int, ...],
) -> np.ndarray:
    """Resampled boolean flags restricted to a level-space window.

    ``flagged`` is the thresholded shadow-resolution boolean; the window
    ``[win_lo, win_hi)`` lives in the level's index space ``shape`` and
    must be aligned to each upsampled axis's resample factor.  Cropping
    the source first commutes exactly with :func:`_resample` (per-axis
    repeat / block-``any`` are local), so this equals the window slice of
    the full-level resample without materializing it.
    """
    crop = flagged
    for axis in range(flagged.ndim):
        src, dst = flagged.shape[axis], shape[axis]
        if dst >= src:
            f = dst // src
            sl = slice(win_lo[axis] // f, win_hi[axis] // f)
        else:
            g = src // dst
            sl = slice(win_lo[axis] * g, win_hi[axis] * g)
        crop = crop[(slice(None),) * axis + (sl,)]
    win_shape = tuple(h - l for l, h in zip(win_lo, win_hi))
    return _resample(crop, win_shape, reduce="any")


def build_hierarchy(
    indicator: np.ndarray, config: TraceGenConfig
) -> GridHierarchy:
    """Build a properly-nested hierarchy from a shadow-grid indicator.

    Level ``l >= 1`` flags the cells whose (resampled) indicator exceeds
    ``flag_threshold * threshold_growth**(l-1)``, restricted to the region
    refined by level ``l - 1``; flags are buffered, clustered with
    Berger--Rigoutsos, and the clustered boxes are clipped against the
    refined parent patches so proper nesting holds *exactly*.

    All per-level arrays are windowed to the refined parent region's
    bounding box (grown by the buffer width, aligned to the resample
    factors): flags can only survive inside the parent region, so the
    window is exact — and a full-level array at ``ultra`` scale (1024^3
    finest space) would be a gigabyte of bools per level per regrid.
    """
    if indicator.ndim != config.ndim:
        raise ValueError(
            f"{indicator.ndim}-d indicator for a {config.ndim}-d config"
        )
    domain = Box((0,) * config.ndim, config.base_shape)
    levels = [PatchLevel(0, [domain], ratio=1)]
    parent_boxes = BoxList([domain])
    for l in range(1, config.max_levels):
        shape = config.level_shape(l)
        tau = min(0.95, config.flag_threshold * config.threshold_growth ** (l - 1))
        # Constant *physical* buffer width: scale by the level's ratio
        # relative to level 1.
        width = (
            config.buffer_width * config.refine_ratio ** (l - 1)
            if config.buffer_width
            else 0
        )
        # Proper nesting: only refine inside the parent's refined region.
        parent_refined = parent_boxes.refine(config.refine_ratio)
        pbb = bounding_box(parent_refined.boxes)
        # Window: parent bounding box grown by the buffer stencil (flags
        # up to `width` outside the parent dilate into it), clipped to
        # the domain, aligned to each upsampled axis's resample factor.
        win_lo: list[int] = []
        win_hi: list[int] = []
        for ax in range(config.ndim):
            f = (
                shape[ax] // indicator.shape[ax]
                if shape[ax] >= indicator.shape[ax]
                else 1
            )
            lo = max(0, pbb.lo[ax] - width) // f * f
            hi = -(-min(shape[ax], pbb.hi[ax] + width) // f) * f
            win_lo.append(lo)
            win_hi.append(hi)
        wlo, whi = tuple(win_lo), tuple(win_hi)
        win_shape = tuple(h - lo for lo, h in zip(wlo, whi))
        # Threshold at the shadow resolution, then resample the *boolean*:
        # ``max(block) > tau == any(block > tau)`` and upsampling commutes
        # with the comparison, so this is bit-identical to resampling the
        # float indicator first — without ever materializing a
        # full-level-resolution float array.
        flags = _flag_window(indicator > tau, shape, wlo, whi)
        if width:
            # Binary max dilation: reflect == clip at true domain edges;
            # at artificial window edges every cell that can survive the
            # parent mask is >= width away, so its stencil is in-window.
            flags = buffer_flags(flags, width)
        wbox = Box(wlo, whi)
        shifted_parents: list[Box] = []
        neg = tuple(-x for x in wlo)
        for p in parent_refined:
            piece = p.intersect(wbox)  # always whole: parents lie in pbb
            if piece is not None:
                shifted_parents.append(piece.shift(neg))
        parent_mask = rasterize_mask(
            shifted_parents, Box((0,) * config.ndim, win_shape)
        )
        flags &= parent_mask
        if not flags.any():
            break
        # Berger--Rigoutsos first shrinks to the flag bounding box, so
        # clustering the window and shifting is exact.
        clusters = [b.shift(wlo) for b in cluster_flags(flags, config.cluster)]
        # Clip against parent patches: guarantees exact nesting even when
        # clustering swallowed unflagged filler cells outside the parent.
        clipped: list[Box] = []
        for box in clusters:
            for parent in parent_refined:
                piece = box.intersect(parent)
                if piece is not None:
                    clipped.append(piece)
        patches = BoxList(clipped).disjointified().coalesced()
        if patches.ncells == 0:
            break
        levels.append(PatchLevel(l, patches, ratio=config.refine_ratio))
        parent_boxes = patches
    return GridHierarchy(domain, levels)


def generate_trace(
    app: ShadowApplication, config: TraceGenConfig | None = None
) -> Trace:
    """Run a kernel for ``config.nsteps`` coarse steps and record regrids.

    A snapshot is recorded at step 0 and after every
    ``config.regrid_interval`` coarse steps, mirroring the paper's
    regrid-every-4-steps schedule.
    """
    if config is None:
        config = TraceGenConfig()
    steps: list[TraceStep] = []

    def record(step: int) -> None:
        with span("trace.snapshot", cat="trace", app=app.name, step=step):
            indicator = gradient_indicator(app.indicator_field())
            hierarchy = build_hierarchy(indicator, config)
            steps.append(
                TraceStep(step=step, time=app.time, hierarchy=hierarchy)
            )

    with span("trace.generate", cat="trace", app=app.name,
              nsteps=config.nsteps, ndim=config.ndim):
        record(0)
        for step in range(1, config.nsteps + 1):
            app.advance()
            if step % config.regrid_interval == 0:
                record(step)
    return Trace(
        name=app.name,
        steps=steps,
        metadata={
            "base_shape": list(config.base_shape),
            "max_levels": config.max_levels,
            "refine_ratio": config.refine_ratio,
            "nsteps": config.nsteps,
            "regrid_interval": config.regrid_interval,
            "flag_threshold": config.flag_threshold,
            "shadow_shape": list(app.shape),
        },
    )
