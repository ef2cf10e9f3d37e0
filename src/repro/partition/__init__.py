"""Partitioning strategies for SAMR grid hierarchies.

The P component of the paper's PAC-triple.  Families (section 2.2):

* :class:`DomainSfcPartitioner` — strictly domain-based SFC decomposition
  (no inter-level communication; imbalance risk on deep hierarchies);
* :class:`PatchBasedPartitioner` — per-level patch distribution (balanced
  levels; inter-level communication);
* :class:`NaturePlusFable` — the hybrid Hue/Core bi-level partitioner the
  paper's experiments use;
* :class:`StickyRepartitioner` — migration-minimizing incremental wrapper
  (the "diffusion-like" option of trade-off 3).
"""

from .base import PartitionResult, Partitioner, proc_loads
from .chains import exact_chains, greedy_chains, segments_to_ranks
from .domain_sfc import DomainSfcPartitioner
from .hybrid import NatureFableParams, NaturePlusFable
from .patch_based import PatchBasedPartitioner
from .sticky import StickyRepartitioner

__all__ = [
    "PartitionResult",
    "Partitioner",
    "proc_loads",
    "exact_chains",
    "greedy_chains",
    "segments_to_ranks",
    "DomainSfcPartitioner",
    "NatureFableParams",
    "NaturePlusFable",
    "PatchBasedPartitioner",
    "StickyRepartitioner",
]
