"""State sampling: traces -> penalty series -> classification trajectories.

This ties the model together: "a model for sampling and translating these
samples of the given application parameters (such as the grid hierarchy)
and system parameters (such as CPU speed and communication bandwidth) into
dimension III of the partitioner-centric classification space"
(contribution 1).  The sampler walks a trace, evaluates the three
penalties ab initio on each (pair of) hierarchy snapshot(s), runs the
dimension-II comparator with the measured invocation intervals, and emits
the continuous classification trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hierarchy import GridHierarchy
from ..simulator.machine import MachineModel
from ..trace import Trace
from .penalties import (
    communication_penalty,
    dimension1,
    load_imbalance_penalty,
    migration_penalty,
)
from .space import ClassificationPoint, StateTrajectory
from .tradeoff2 import GridSizeTracker, Tradeoff2Model, Tradeoff2Sample

__all__ = ["StateSample", "StateSampler", "PenaltySeries"]


@dataclass(frozen=True, slots=True)
class StateSample:
    """All model outputs for one regrid step."""

    step: int
    beta_l: float
    beta_c: float
    beta_m: float
    tradeoff2: Tradeoff2Sample
    point: ClassificationPoint


@dataclass(frozen=True)
class PenaltySeries:
    """Penalty, coordinate and trade-off-2 series over a whole trace."""

    steps: np.ndarray
    beta_l: np.ndarray
    beta_c: np.ndarray
    beta_m: np.ndarray
    dim1: np.ndarray
    dim2: np.ndarray
    dim3: np.ndarray
    requested_fraction: np.ndarray
    requested_seconds: np.ndarray
    offered_seconds: np.ndarray
    normalized_grid_size: np.ndarray


class StateSampler:
    """Evaluates the full model along a trace.

    Parameters
    ----------
    machine :
        System-state component (used to estimate per-step compute time,
        which is what the invocation timer of section 4.3 would measure).
    ghost_width :
        Ghost width used by ``beta_C``.
    tradeoff2 :
        The dimension-II comparator; defaults to the documented completion
        of the paper's open design.
    migration_denominator :
        Denominator convention of ``beta_m`` (ablation knob).
    steps_per_snapshot :
        Coarse steps between regrids (scales the invocation interval).
    """

    def __init__(
        self,
        machine: MachineModel | None = None,
        ghost_width: int = 1,
        tradeoff2: Tradeoff2Model | None = None,
        migration_denominator: str = "current",
        steps_per_snapshot: int = 4,
        nprocs: int = 16,
    ) -> None:
        if steps_per_snapshot < 1:
            raise ValueError("steps_per_snapshot must be >= 1")
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.machine = machine or MachineModel()
        self.ghost_width = ghost_width
        self.tradeoff2 = tradeoff2 or Tradeoff2Model()
        self.migration_denominator = migration_denominator
        self.steps_per_snapshot = steps_per_snapshot
        self.nprocs = nprocs

    def invocation_interval(self, ncells_workload: int) -> float:
        """Modeled time between partitioner invocations.

        The paper proposes measuring this with coarse-grained timer calls
        at each invocation; in a trace replay the interval is the modeled
        compute time of ``steps_per_snapshot`` coarse steps on ``nprocs``
        ranks.
        """
        per_rank = ncells_workload / self.nprocs
        return (
            self.machine.compute_seconds(per_rank) * self.steps_per_snapshot
        )

    def effective_beta_c(self, beta_c: float) -> float:
        """System-weighted communication penalty for the dimension-I mix.

        Dimension I classifies the PAC-triple, not just the application:
        the same grid on a network-starved machine needs communication
        optimization more.  The raw ``beta_C`` (what the figures plot) is
        scaled by the machine's point-transfer-to-point-update cost ratio
        before it is compared against ``beta_L``.
        """
        return min(1.0, beta_c * self.machine.comm_compute_ratio())

    def sample(
        self,
        hierarchy: GridHierarchy,
        previous: GridHierarchy | None,
        tracker: GridSizeTracker,
        step: int,
    ) -> StateSample:
        """Evaluate one snapshot against the one before it.

        ``previous`` is the hierarchy of the preceding regrid (``None``
        at the first, whose ``beta_m`` is 0); ``tracker`` carries the
        largest grid seen so far across the snapshots of one replay.
        """
        beta_l = load_imbalance_penalty(hierarchy)
        beta_c = communication_penalty(
            hierarchy, nprocs=self.nprocs, ghost_width=self.ghost_width
        )
        beta_m = (
            migration_penalty(
                previous, hierarchy, denominator=self.migration_denominator
            )
            if previous is not None
            else 0.0
        )
        norm_size = tracker.observe(hierarchy.ncells)
        interval = self.invocation_interval(hierarchy.workload)
        t2 = self.tradeoff2.evaluate(
            (beta_l, beta_c, beta_m), hierarchy.ncells, norm_size, interval
        )
        point = ClassificationPoint(
            dim1=dimension1(beta_l, self.effective_beta_c(beta_c)),
            dim2=t2.dimension2,
            dim3=beta_m,
        )
        return StateSample(
            step=step,
            beta_l=beta_l,
            beta_c=beta_c,
            beta_m=beta_m,
            tradeoff2=t2,
            point=point,
        )

    def sample_trace(self, trace: Trace) -> list[StateSample]:
        """Evaluate every snapshot; ``beta_m`` of the first step is 0."""
        tracker = GridSizeTracker()
        samples: list[StateSample] = []
        previous = None
        for snap in trace:
            samples.append(
                self.sample(snap.hierarchy, previous, tracker, snap.step)
            )
            previous = snap.hierarchy
        return samples

    def trajectory(self, trace: Trace) -> StateTrajectory:
        """The classification curve of a trace."""
        return StateTrajectory([s.point for s in self.sample_trace(trace)])

    def penalty_series(self, trace: Trace) -> PenaltySeries:
        """Array view of the sampled model outputs: the columns a
        ``penalties`` store entry holds."""
        samples = self.sample_trace(trace)
        return PenaltySeries(
            steps=np.array([s.step for s in samples], dtype=np.int64),
            beta_l=np.array([s.beta_l for s in samples]),
            beta_c=np.array([s.beta_c for s in samples]),
            beta_m=np.array([s.beta_m for s in samples]),
            dim1=np.array([s.point.dim1 for s in samples]),
            dim2=np.array([s.point.dim2 for s in samples]),
            dim3=np.array([s.point.dim3 for s in samples]),
            requested_fraction=np.array(
                [s.tradeoff2.requested_fraction for s in samples]
            ),
            requested_seconds=np.array(
                [s.tradeoff2.requested_seconds for s in samples]
            ),
            offered_seconds=np.array(
                [s.tradeoff2.offered_seconds for s in samples]
            ),
            normalized_grid_size=np.array(
                [s.tradeoff2.normalized_grid_size for s in samples]
            ),
        )
