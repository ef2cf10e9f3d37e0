"""TP2D: the 2-D transport-equation benchmark kernel.

The paper's TP2D is "a simple benchmark kernel that solves the transport
equation in 2D and is part of the GrACE distribution" (section 5.1.1), and
its trace exhibits *seemingly random* data-migration and communication
dynamics (Figure 7).

We solve the linear advection equation

    du/dt + v(x, t) . grad(u) = 0

with a semi-Lagrangian scheme (unconditionally stable backward
characteristic tracing with periodic bilinear interpolation, done by
:func:`repro.apps.base._periodic_interp`).  The velocity field is
a time-meandering vortex: a solid-body rotation whose centre slowly drifts
along a seeded pseudo-random path.  The advected feature is a pair of
compact Gaussian pulses; their wandering orbits produce the irregular
refinement dynamics the paper reports for TP2D.
"""

from __future__ import annotations

import numpy as np

from ..registry import register
from .base import ShadowApplication, _periodic_interp

__all__ = ["Transport2D"]


@register("app", "tp2d", description="2-D transport benchmark (GrACE-style), seemingly random trace")
class Transport2D(ShadowApplication):
    """Meandering-vortex advection of compact pulses.

    Parameters
    ----------
    shape :
        Shadow-grid resolution.
    dt :
        Coarse-step time increment (domain is the unit square).
    seed :
        Seed of the vortex-centre drift path.
    """

    name = "tp2d"

    def __init__(
        self,
        shape: tuple[int, int] = (128, 128),
        dt: float = 0.02,
        seed: int = 2004,
    ) -> None:
        if min(shape) < 8:
            raise ValueError("shadow grid too small")
        self._shape = shape
        self._dt = float(dt)
        self._time = 0.0
        rng = np.random.default_rng(seed)
        # Smooth drift path for the vortex centre: random Fourier series.
        self._drift_amp = rng.uniform(0.05, 0.18, size=(2, 3))
        self._drift_freq = rng.uniform(0.3, 1.1, size=(2, 3))
        self._drift_phase = rng.uniform(0, 2 * np.pi, size=(2, 3))
        # Irregularly-varying vortex strength: the feature speed (hence the
        # per-regrid hierarchy change the model must track) fluctuates.
        self._gust_freq = rng.uniform(0.2, 1.4, size=4)
        self._gust_phase = rng.uniform(0, 2 * np.pi, size=4)
        nx, ny = shape
        x = (np.arange(nx) + 0.5) / nx
        y = (np.arange(ny) + 0.5) / ny
        self._X, self._Y = np.meshgrid(x, y, indexing="ij")
        u = np.zeros(shape)
        for cx, cy, w in ((0.35, 0.5, 0.05), (0.65, 0.45, 0.04)):
            u += np.exp(-(((self._X - cx) ** 2 + (self._Y - cy) ** 2) / w**2))
        self._u = u

    # -- ShadowApplication interface ---------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def time(self) -> float:
        return self._time

    def indicator_field(self) -> np.ndarray:
        return self._u

    def advance(self) -> None:
        """One semi-Lagrangian coarse step."""
        vx, vy = self._velocity(self._time)
        nx, ny = self._shape
        # Backward-trace departure points in index coordinates.
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        dep_i = i - vx * self._dt * nx
        dep_j = j - vy * self._dt * ny
        self._u = _periodic_interp(self._u, [dep_i, dep_j])
        self._time += self._dt

    # -- internals -----------------------------------------------------------
    def _vortex_centre(self, t: float) -> tuple[float, float]:
        """Drifting vortex centre at time ``t`` (unit-square coordinates)."""
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

    def _velocity(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Solid-body rotation about the drifting centre, softened core."""
        cx, cy = self._vortex_centre(t)
        dx = self._X - cx
        dy = self._Y - cy
        r2 = dx**2 + dy**2
        omega = self._gust(t) * 1.6 / (1.0 + 6.0 * r2)
        return -omega * dy, omega * dx
