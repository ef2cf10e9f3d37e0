"""The meta-partitioner: classification state -> partitioner configuration.

The ultimate aim of the research programme (section 1): "being able to
select and configure the optimal partitioner based on the dynamic
properties of the grid hierarchy and the computer".  The continuous
classification space enables "not only a coarse grained partitioner
selection, but also an extremely fine grained partitioner configuration"
(section 4); the rules below implement both stages:

* **Selection** (coarse): dimension I chooses the partitioner family —
  communication-dominated states get strictly domain-based SFC
  decompositions (no inter-level communication), balance-dominated states
  get the patch-based load-balance specialist (section 4's "migrate from
  domain-based techniques toward more elaborate patch-based techniques
  specializing in optimizing load balance"), the middle gets the hybrid.
* **Configuration** (fine): dimension II picks the curve/solver quality
  (Hilbert + exact chains when time is ample, Morton + greedy when speed
  is needed); dimension III wraps the choice in the sticky remapper with a
  migration budget that *shrinks* as ``beta_m`` grows — when the grid
  inherently wants to move a lot of data, the partitioner should resist
  amplifying it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hierarchy import GridHierarchy
from ..model import (
    ClassificationPoint,
    GridSizeTracker,
    StateSample,
    StateSampler,
)
from ..partition import (
    DomainSfcPartitioner,
    NatureFableParams,
    NaturePlusFable,
    Partitioner,
    PartitionResult,
    PatchBasedPartitioner,
    StickyRepartitioner,
)
from ..trace import TraceStep

__all__ = ["MetaPolicy", "MetaPartitioner", "MetaScheduler"]


@dataclass(frozen=True, slots=True)
class MetaPolicy:
    """Thresholds of the selection/configuration rules.

    The dimension-I cuts are calibrated against the machine-weighted
    dim1 ranges the four paper traces produce: network-starved and
    balanced clusters land below ~0.90 (communication worth optimizing),
    compute-bound machines above ~0.96 (balance is everything), with the
    hybrid serving the band between.  The thresholds are fixed by hand:
    nothing sweeps or fits them yet.  Fitting them by blocked evaluation,
    one application held out per fold, is open work in ROADMAP.md.
    """

    dim1_low: float = 0.90
    dim1_high: float = 0.96
    dim2_speed: float = 0.75
    dim3_sticky: float = 0.35
    sticky_tolerance: float = 1.3
    sticky_cost_ratio: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.dim1_low <= self.dim1_high <= 1.0:
            raise ValueError("need 0 <= dim1_low <= dim1_high <= 1")
        for name in ("dim2_speed", "dim3_sticky"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.sticky_tolerance < 1.0:
            raise ValueError("sticky_tolerance must be >= 1.0")
        if self.sticky_cost_ratio < 0.0:
            raise ValueError("sticky_cost_ratio must be >= 0")


class MetaPartitioner:
    """Maps classification points onto configured partitioners."""

    def __init__(self, policy: MetaPolicy | None = None) -> None:
        self.policy = policy or MetaPolicy()

    def select(
        self, point: ClassificationPoint, sticky_ok: bool = True
    ) -> Partitioner:
        """The configured partitioner for one sampled state.

        ``sticky_ok`` gates the migration-minimizing wrapper: callers with
        cost context (the scheduler) disable it when the modeled migration
        cost is negligible next to the communication the wrapper would
        degrade — the paper's point that attacking data migration
        "trades-off whatever shortcomings the current partitioning is
        suffering from" (section 4), so it must only be done when
        migration is the *dominant* cost.
        """
        p = self.policy
        fast = point.dim2 >= p.dim2_speed
        # --- coarse selection from dimension I -------------------------
        if point.dim1 <= p.dim1_low:
            # Communication matters most: strictly domain-based, best curve
            # affordable.
            inner: Partitioner = DomainSfcPartitioner(
                curve="morton" if fast else "hilbert",
                unit_size=4,
                exact=not fast,
            )
        elif point.dim1 >= p.dim1_high:
            # Load balance matters most (compute-bound system): "migrate
            # from domain-based techniques toward more elaborate patch-
            # based techniques specializing in optimizing load balance"
            # (section 4).
            inner = PatchBasedPartitioner(strategy="lpt", split_oversized=True)
        else:
            # Mixed regime: hybrid defaults (the paper's static setup),
            # upgraded to the locality curve when time is ample.
            params = (
                NatureFableParams()
                if fast
                else NatureFableParams().locality_focused()
            )
            inner = NaturePlusFable(params)
        # --- fine configuration from dimension III ----------------------
        if sticky_ok and point.dim3 >= p.dim3_sticky:
            # High inherent migration: resist amplifying it.  Budget shrinks
            # as beta_m grows.
            budget = max(0.05, 0.5 * (1.0 - point.dim3))
            return StickyRepartitioner(
                inner,
                imbalance_tolerance=p.sticky_tolerance,
                migration_budget=budget,
            )
        return inner


class MetaScheduler:
    """Per-step schedule callable for :meth:`TraceSimulator.run_scheduled`.

    Realizes the fully dynamic PAC of Figure 2: at each regrid the sampler
    classifies the application/system state ab initio and the meta-
    partitioner re-selects and re-configures P.  Holds the running state
    (previous hierarchy, grid-size tracker, last sample) across
    invocations; replay a new trace with a new scheduler.
    """

    def __init__(
        self,
        sampler: StateSampler | None = None,
        meta: MetaPartitioner | None = None,
    ) -> None:
        self.sampler = sampler or StateSampler()
        self.meta = meta or MetaPartitioner()
        self._prev_hierarchy: GridHierarchy | None = None
        self._tracker = GridSizeTracker()
        self._last: StateSample | None = None
        self.history: list[ClassificationPoint] = []

    def classify(self, hierarchy: GridHierarchy) -> ClassificationPoint:
        """Classify one snapshot, updating the running state."""
        self._last = self.sampler.sample(
            hierarchy, self._prev_hierarchy, self._tracker, len(self.history)
        )
        self._prev_hierarchy = hierarchy
        self.history.append(self._last.point)
        return self._last.point

    def migration_dominates(self, hierarchy: GridHierarchy) -> bool:
        """Is the predicted migration cost significant next to the
        predicted communication cost of the inter-regrid interval?

        Migration moves about ``beta_m * |H_t|`` points once per regrid;
        ghost communication moves about ``beta_C * workload`` points per
        coarse step, for ``steps_per_snapshot`` steps.  The sticky wrapper
        only pays off when the former is a non-trivial fraction of the
        latter.
        """
        if self._last is None:
            return False
        migration_points = self._last.beta_m * hierarchy.ncells
        comm_points = (
            self._last.beta_c
            * hierarchy.workload
            * self.sampler.steps_per_snapshot
        )
        threshold = self.meta.policy.sticky_cost_ratio
        return migration_points > threshold * max(comm_points, 1.0)

    def __call__(
        self,
        index: int,
        snapshot: TraceStep,
        previous: PartitionResult | None,
    ) -> Partitioner:
        """The schedule interface of the simulator."""
        point = self.classify(snapshot.hierarchy)
        sticky_ok = self.migration_dominates(snapshot.hierarchy)
        return self.meta.select(point, sticky_ok=sticky_ok)
