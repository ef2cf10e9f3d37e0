"""The absolute, continuous partitioner-centric classification space.

Section 4 replaces the octant approach's discrete cube with a space whose
three axes are exactly the three universal partitioning trade-offs:

* **dimension I** — communication versus load balance,
* **dimension II** — speed versus overall quality,
* **dimension III** — data migration.

"A state sampling will generate a mapping onto a point defined in a
continuous coordinate space within the classification space.  The locus of
all such points, as a simulation evolves, will be a curve in the same
space."  The curve enables fine-grained partitioner *configuration*, not
just coarse selection; the octant discretization is retained only as the
ArMADA-style baseline (:meth:`ClassificationPoint.octant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["ClassificationPoint", "StateTrajectory"]


@dataclass(frozen=True, slots=True)
class ClassificationPoint:
    """One sampled state: a point in ``[0, 1]^3``.

    Attributes
    ----------
    dim1 :
        Load balance (1) versus communication (0) optimization need.
    dim2 :
        Speed (1) versus quality (0) optimization need.
    dim3 :
        Data-migration optimization need (``beta_m``).
    """

    dim1: float
    dim2: float
    dim3: float

    def __post_init__(self) -> None:
        for name in ("dim1", "dim2", "dim3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    def as_array(self) -> np.ndarray:
        """The coordinates as a length-3 float array."""
        return np.array([self.dim1, self.dim2, self.dim3], dtype=np.float64)

    def octant(self, threshold: float = 0.5) -> int:
        """ArMADA-style discretization: the octant index in ``[0, 8)``.

        Bit 0 = dim1 high, bit 1 = dim2 high, bit 2 = dim3 high.  This is
        the coarse classification the continuous space supersedes; kept as
        the comparison baseline (section 3).
        """
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        return (
            (self.dim1 >= threshold)
            + 2 * (self.dim2 >= threshold)
            + 4 * (self.dim3 >= threshold)
        )


class StateTrajectory:
    """The locus of classification points as a simulation evolves.

    Supports the smooth-curve view of section 4: per-dimension series,
    octant transition counting (how jittery the discrete baseline would
    be) and arc length (how dynamic the application state is).
    """

    def __init__(self, points: Sequence[ClassificationPoint] = ()) -> None:
        self._points: list[ClassificationPoint] = list(points)

    def append(self, point: ClassificationPoint) -> None:
        """Extend the trajectory by one sample."""
        self._points.append(point)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ClassificationPoint]:
        return iter(self._points)

    def __getitem__(self, i: int) -> ClassificationPoint:
        return self._points[i]

    def series(self, dim: int) -> np.ndarray:
        """The coordinate series of dimension ``dim`` (1, 2 or 3)."""
        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        attr = f"dim{dim}"
        return np.array(
            [getattr(p, attr) for p in self._points], dtype=np.float64
        )

    def arc_length(self) -> float:
        """Total path length of the curve in ``[0, 1]^3``."""
        if len(self._points) < 2:
            return 0.0
        coords = np.stack([p.as_array() for p in self._points])
        return float(np.linalg.norm(np.diff(coords, axis=0), axis=1).sum())

    def octant_transitions(self, threshold: float = 0.5) -> int:
        """Number of discrete octant changes along the trajectory."""
        octants = [p.octant(threshold) for p in self._points]
        return sum(a != b for a, b in zip(octants, octants[1:]))
