"""repro — reproduction of Steensland & Ray, "A Partitioner-Centric Model
for SAMR Partitioning Trade-off Optimization: Part II" (SAND2003-8725 /
ICPP 2004).

Subpackage map (the README's *Architecture* section has the full tree):

==================  =====================================================
``repro.registry``   unified component registry (apps, partitioners,
                     schedules, machines, scales)
``repro.geometry``   integer box calculus, patch sets, rasterization
``repro.sfc``        Morton / Hilbert space-filling curves
``repro.hierarchy``  SAMR grid hierarchies (levels, nesting, workload)
``repro.clustering`` error flagging + Berger--Rigoutsos clustering
``repro.apps``       the paper's kernels (TP2D/BL2D/SC2D/RM2D) + 3-D
``repro.trace``      regrid-snapshot traces and serialization
``repro.partition``  domain-based / patch-based / hybrid / sticky P's
``repro.simulator``  trace-driven Berger--Colella execution simulator
``repro.metrics``    grid-relative metrics (section 4.1)
``repro.model``      the penalties and the classification space (core)
``repro.meta``       the meta-partitioner and the ArMADA octant baseline
``repro.experiments`` regeneration of every figure of the evaluation
``repro.engine``     dependency-aware experiment execution over a
                     content-addressed result store (versioned public
                     API), and the ``python -m repro`` CLI
==================  =====================================================
"""

from .hierarchy import GridHierarchy, PatchLevel
from .model import (
    ClassificationPoint,
    StateSampler,
    StateTrajectory,
    communication_penalty,
    dimension1,
    load_imbalance_penalty,
    migration_penalty,
)
from .trace import Trace, TraceStep

__version__ = "1.0.0"

__all__ = [
    "GridHierarchy",
    "PatchLevel",
    "ClassificationPoint",
    "StateSampler",
    "StateTrajectory",
    "communication_penalty",
    "dimension1",
    "load_imbalance_penalty",
    "migration_penalty",
    "Trace",
    "TraceStep",
    "__version__",
]
