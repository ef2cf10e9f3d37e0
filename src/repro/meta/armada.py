"""The ArMADA-style octant baseline (section 3).

ArMADA was "a first attempt at an actual implementation of the model": it
"disregards the system component and uses simple box operations like e.g.
volume-to-surface ratio on the grid hierarchy to determine the
corresponding octant.  The classification is relative to the previous
state (octant)".  We rebuild that scheme as the comparison baseline for
the continuous meta-partitioner:

* three discrete axes (octant approach, Figure 3 left): refinement
  pattern (localized/scattered), time domination (computation/
  communication via volume-to-surface ratio), activity dynamics
  (slow/fast via hierarchy-size change);
* *relative* classification with hysteresis — an axis flips only when its
  feature crosses the threshold by a margin, mimicking ArMADA's
  change-tracking;
* a fixed octant -> partitioner mapping table (as derived for a set of
  partitioners in the cited prior work).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hierarchy import GridHierarchy
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

__all__ = ["ArmadaFeatures", "ArmadaClassifier", "armada_octant_table"]


@dataclass(frozen=True, slots=True)
class ArmadaFeatures:
    """The raw box-operation features of one snapshot."""

    volume_to_surface: float
    localization: float
    activity: float


def compute_features(
    hierarchy: GridHierarchy, previous: GridHierarchy | None
) -> ArmadaFeatures:
    """Simple box operations on the hierarchy (no system component)."""
    surface = sum(level.patches.surface_cells for level in hierarchy)
    volume = hierarchy.ncells
    v2s = volume / surface if surface else float(volume)
    # Localization: fraction of refined cells in the largest level-1 patch
    # footprint (scattered refinement spreads it thin).
    if hierarchy.nlevels > 1 and hierarchy.levels[1].ncells:
        biggest = max(b.ncells for b in hierarchy.levels[1].patches)
        localization = biggest / hierarchy.levels[1].ncells
    else:
        localization = 0.0
    if previous is None or previous.ncells == 0:
        activity = 0.0
    else:
        activity = abs(hierarchy.ncells - previous.ncells) / previous.ncells
    return ArmadaFeatures(
        volume_to_surface=v2s, localization=localization, activity=activity
    )


def armada_octant_table(octant: int) -> Partitioner:
    """The fixed octant -> partitioning-technique mapping.

    Bit 0: localized refinement; bit 1: communication dominated; bit 2:
    high activity dynamics.  The assignments follow the qualitative
    guidance of sections 3.1--3.3: scattered+computation -> hybrid;
    localized+computation -> patch-based balance specialist; communication
    dominated -> domain-based SFC; high dynamics -> sticky wrapping
    (cheap, low-migration repartitioning).
    """
    if not 0 <= octant < 8:
        raise ValueError("octant must be in [0, 8)")
    localized = bool(octant & 1)
    comm_dominated = bool(octant & 2)
    dynamic = bool(octant & 4)
    if comm_dominated:
        inner: Partitioner = DomainSfcPartitioner(
            curve="hilbert", unit_size=4, exact=not dynamic
        )
    elif localized:
        inner = PatchBasedPartitioner(strategy="lpt", split_oversized=True)
    else:
        inner = NaturePlusFable(NatureFableParams())
    if dynamic:
        return StickyRepartitioner(inner, migration_budget=0.15)
    return inner


class ArmadaClassifier:
    """Relative, discrete octant classification with hysteresis.

    Parameters
    ----------
    v2s_threshold :
        Volume-to-surface ratio below which the state counts as
        communication dominated (thin/fragmented grids communicate more).
    localization_threshold :
        Largest-patch fraction above which refinement counts as localized.
    activity_threshold :
        Relative size change above which dynamics count as high.
    hysteresis :
        Fractional margin a feature must cross beyond a threshold to flip
        its bit (the "relative to the previous state" behaviour).
    """

    def __init__(
        self,
        v2s_threshold: float = 4.0,
        localization_threshold: float = 0.5,
        activity_threshold: float = 0.15,
        hysteresis: float = 0.2,
    ) -> None:
        if hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")
        self.v2s_threshold = v2s_threshold
        self.localization_threshold = localization_threshold
        self.activity_threshold = activity_threshold
        self.hysteresis = hysteresis
        self._octant = 0
        self._prev_hierarchy: GridHierarchy | None = None
        self.history: list[int] = []

    def _flip(self, current: bool, feature: float, threshold: float, above: bool) -> bool:
        """Hysteresis bit update: flip only past threshold*(1 +/- margin)."""
        m = self.hysteresis
        if current:
            # Need to fall clearly below (or rise clearly above) to clear.
            limit = threshold * (1 - m) if above else threshold * (1 + m)
            return feature > limit if above else feature < limit
        limit = threshold * (1 + m) if above else threshold * (1 - m)
        return feature > limit if above else feature < limit

    def classify(self, hierarchy: GridHierarchy) -> int:
        """The octant of one snapshot (stateful, relative to the last)."""
        f = compute_features(hierarchy, self._prev_hierarchy)
        localized = self._flip(
            bool(self._octant & 1),
            f.localization,
            self.localization_threshold,
            above=True,
        )
        comm = self._flip(
            bool(self._octant & 2),
            f.volume_to_surface,
            self.v2s_threshold,
            above=False,
        )
        dynamic = self._flip(
            bool(self._octant & 4), f.activity, self.activity_threshold, above=True
        )
        self._octant = localized + 2 * comm + 4 * dynamic
        self._prev_hierarchy = hierarchy
        self.history.append(self._octant)
        return self._octant

    def __call__(
        self,
        index: int,
        snapshot: TraceStep,
        previous: PartitionResult | None,
    ) -> Partitioner:
        """Schedule interface: classify and map through the octant table."""
        return armada_octant_table(self.classify(snapshot.hierarchy))
