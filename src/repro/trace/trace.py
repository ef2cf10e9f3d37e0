"""Application execution traces: sequences of grid-hierarchy snapshots.

The paper's validation (section 5.1.3) is *trace-driven*: each application
is run once on a single processor, and the state of the SAMR grid
hierarchy is recorded at every regrid step, independent of any
partitioning.  The trace is then replayed through the execution simulator
under different partitioners.  This module is the trace substrate: the
snapshot record, the trace container, JSON (de)serialization and summary
statistics.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..hierarchy import GridHierarchy

__all__ = ["TraceStep", "Trace", "TraceStats"]


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One regrid-step snapshot.

    Parameters
    ----------
    step :
        Coarse time-step index at which the regrid happened.
    time :
        Physical simulation time of the snapshot.
    hierarchy :
        The full grid hierarchy immediately *after* regridding.
    """

    step: int
    time: float
    hierarchy: GridHierarchy

    def to_json(self) -> dict:
        """JSON form of the snapshot."""
        return {
            "step": self.step,
            "time": self.time,
            "hierarchy": self.hierarchy.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "TraceStep":
        """Inverse of :meth:`to_json`."""
        return TraceStep(
            step=int(data["step"]),
            time=float(data["time"]),
            hierarchy=GridHierarchy.from_json(data["hierarchy"]),
        )


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Summary statistics of a trace (used in EXPERIMENTS.md tables)."""

    nsteps: int
    min_cells: int
    max_cells: int
    mean_cells: float
    max_levels: int
    mean_patches: float

    def to_json(self) -> dict:
        """JSON form (plain dict of the fields)."""
        return {
            "nsteps": self.nsteps,
            "min_cells": self.min_cells,
            "max_cells": self.max_cells,
            "mean_cells": self.mean_cells,
            "max_levels": self.max_levels,
            "mean_patches": self.mean_patches,
        }


class Trace:
    """An ordered sequence of :class:`TraceStep` snapshots plus metadata.

    Parameters
    ----------
    name :
        Application identifier (``"rm2d"``, ``"bl2d"``, ``"sc2d"``,
        ``"tp2d"`` for the paper's suite).
    steps :
        Snapshots in increasing ``step`` order.
    metadata :
        Free-form generation parameters (resolution, seeds, tolerances);
        persisted alongside the snapshots for reproducibility.
    """

    __slots__ = ("name", "steps", "metadata")

    def __init__(
        self,
        name: str,
        steps: Sequence[TraceStep],
        metadata: dict | None = None,
    ) -> None:
        steps = list(steps)
        if not steps:
            raise ValueError("a trace needs at least one snapshot")
        for prev, cur in zip(steps, steps[1:]):
            if cur.step <= prev.step:
                raise ValueError(
                    f"trace steps must be strictly increasing: "
                    f"{prev.step} then {cur.step}"
                )
        self.name = name
        self.steps = tuple(steps)
        self.metadata = dict(metadata or {})

    # -- container protocol ----------------------------------------------
    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> TraceStep:
        return self.steps[i]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.name!r}, {len(self.steps)} snapshots)"

    # -- derived ----------------------------------------------------------
    def hierarchies(self) -> list[GridHierarchy]:
        """The snapshot hierarchies in order."""
        return [s.hierarchy for s in self.steps]

    def consecutive_pairs(self) -> Iterator[tuple[TraceStep, TraceStep]]:
        """Iterate over ``(H_{t-1}, H_t)`` snapshot pairs."""
        return zip(self.steps, self.steps[1:])

    def stats(self) -> TraceStats:
        """Aggregate size/depth/patch statistics over the trace."""
        cells = [s.hierarchy.ncells for s in self.steps]
        patches = [s.hierarchy.npatches for s in self.steps]
        return TraceStats(
            nsteps=len(self.steps),
            min_cells=min(cells),
            max_cells=max(cells),
            mean_cells=sum(cells) / len(cells),
            max_levels=max(s.hierarchy.nlevels for s in self.steps),
            mean_patches=sum(patches) / len(patches),
        )

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        """Full JSON form of the trace."""
        return {
            "name": self.name,
            "metadata": self.metadata,
            "steps": [s.to_json() for s in self.steps],
        }

    @staticmethod
    def from_json(data: dict) -> "Trace":
        """Inverse of :meth:`to_json`."""
        return Trace(
            name=data["name"],
            steps=[TraceStep.from_json(s) for s in data["steps"]],
            metadata=data.get("metadata", {}),
        )

    def save(self, path: str | Path) -> None:
        """Write the trace as (optionally gzipped) JSON.

        Paths ending in ``.gz`` are gzip-compressed with a pinned header
        timestamp, so equal traces produce byte-identical files no
        matter when or where they were generated (the guarantee "a
        process-pool sweep's store is bit-identical to a serial one"
        rests on this).
        """
        path = Path(path)
        payload = json.dumps(self.to_json(), separators=(",", ":"))
        if path.suffix == ".gz":
            with open(path, "wb") as raw:
                with gzip.GzipFile(
                    filename="", mode="wb", fileobj=raw, mtime=0
                ) as fh:
                    fh.write(payload.encode("utf-8"))
        else:
            path.write_text(payload, encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.loads(path.read_text(encoding="utf-8"))
        return Trace.from_json(data)
