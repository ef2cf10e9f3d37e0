"""TP3D: a 3-D transport benchmark kernel.

The paper's validation suite is 2-D, but the SAMR production codes its
framework targets (the GrACE/Cactus lineage) are 3-D.  TP3D extends the
TP2D transport benchmark to three dimensions so 3-D hierarchies flow
through the whole meta-partitioning stack: the linear advection equation

    du/dt + v(x, t) . grad(u) = 0

is solved with the same semi-Lagrangian scheme (unconditionally stable
backward characteristic tracing, periodic trilinear interpolation by
:func:`repro.apps.base._periodic_interp`).  The velocity
field is a meandering columnar vortex: solid-body rotation about a
vertical axis whose centre drifts along a seeded pseudo-random path,
plus a gentle time-varying vertical shear that corkscrews the features
through the third dimension.  The advected feature is a pair of compact
Gaussian blobs; their wandering orbits produce irregular, fully 3-D
refinement dynamics.
"""

from __future__ import annotations

import numpy as np

from ..registry import register
from .base import ShadowApplication, _periodic_interp

__all__ = ["Transport3D"]


@register("app", "tp3d", description="3-D transport benchmark, seemingly random trace")
class Transport3D(ShadowApplication):
    """Meandering-vortex advection of compact blobs in 3-D.

    Parameters
    ----------
    shape :
        Shadow-grid resolution (three extents; the domain is the unit
        cube).
    dt :
        Coarse-step time increment.
    seed :
        Seed of the vortex-centre drift path.
    """

    name = "tp3d"
    ndim = 3

    def __init__(
        self,
        shape: tuple[int, int, int] = (48, 48, 48),
        dt: float = 0.02,
        seed: int = 2004,
    ) -> None:
        if len(shape) != 3:
            raise ValueError("Transport3D needs a 3-d shadow grid")
        if min(shape) < 8:
            raise ValueError("shadow grid too small")
        self._shape = tuple(int(s) for s in shape)
        self._dt = float(dt)
        self._time = 0.0
        rng = np.random.default_rng(seed)
        # Smooth drift path for the vortex axis: random Fourier series per
        # horizontal coordinate, as in TP2D.
        self._drift_amp = rng.uniform(0.05, 0.18, size=(2, 3))
        self._drift_freq = rng.uniform(0.3, 1.1, size=(2, 3))
        self._drift_phase = rng.uniform(0, 2 * np.pi, size=(2, 3))
        # Irregularly-varying vortex strength and vertical shear.
        self._gust_freq = rng.uniform(0.2, 1.4, size=4)
        self._gust_phase = rng.uniform(0, 2 * np.pi, size=4)
        self._shear_freq = rng.uniform(0.2, 0.9, size=2)
        self._shear_phase = rng.uniform(0, 2 * np.pi, size=2)
        nx, ny, nz = self._shape
        x = (np.arange(nx) + 0.5) / nx
        y = (np.arange(ny) + 0.5) / ny
        z = (np.arange(nz) + 0.5) / nz
        self._X, self._Y, self._Z = np.meshgrid(x, y, z, indexing="ij")
        self._I, self._J, self._K = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        u = np.zeros(self._shape)
        for cx, cy, cz, w in ((0.35, 0.5, 0.45, 0.07), (0.65, 0.45, 0.6, 0.06)):
            u += np.exp(
                -(
                    (
                        (self._X - cx) ** 2
                        + (self._Y - cy) ** 2
                        + (self._Z - cz) ** 2
                    )
                    / w**2
                )
            )
        self._u = u

    # -- ShadowApplication interface ---------------------------------------
    @property
    def shape(self) -> tuple[int, int, int]:
        return self._shape

    @property
    def time(self) -> float:
        return self._time

    def indicator_field(self) -> np.ndarray:
        return self._u

    def advance(self) -> None:
        """One semi-Lagrangian coarse step."""
        vx, vy, vz = self._velocity(self._time)
        nx, ny, nz = self._shape
        dep_i = self._I - vx * self._dt * nx
        dep_j = self._J - vy * self._dt * ny
        dep_k = self._K - vz * self._dt * nz
        self._u = _periodic_interp(self._u, [dep_i, dep_j, dep_k])
        self._time += self._dt

    # -- internals -----------------------------------------------------------
    def _vortex_centre(self, t: float) -> tuple[float, float]:
        """Drifting vortex-axis position at time ``t`` (unit coordinates)."""
        centre = []
        for d in range(2):
            offset = np.sum(
                self._drift_amp[d]
                * np.sin(2 * np.pi * self._drift_freq[d] * t + self._drift_phase[d])
            )
            centre.append(0.5 + offset)
        return centre[0], centre[1]

    def _gust(self, t: float) -> float:
        """Vortex-strength multiplier in about ``[0.25, 1.75]``."""
        s = float(
            np.mean(np.sin(2 * np.pi * self._gust_freq * t + self._gust_phase))
        )
        return 1.0 + 0.75 * s

    def _velocity(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar rotation about the drifting axis plus vertical shear."""
        cx, cy = self._vortex_centre(t)
        dx = self._X - cx
        dy = self._Y - cy
        r2 = dx**2 + dy**2
        omega = self._gust(t) * 1.6 / (1.0 + 6.0 * r2)
        shear = float(
            np.mean(np.sin(2 * np.pi * self._shear_freq * t + self._shear_phase))
        )
        # Vertical velocity strongest near the vortex core, alternating in
        # sign over time: blobs corkscrew up and down the column.
        vz = 0.5 * shear / (1.0 + 6.0 * r2)
        return -omega * dy, omega * dx, vz
