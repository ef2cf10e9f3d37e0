"""The meta-partitioner (continuous) and the ArMADA octant baseline."""

from .armada import ArmadaClassifier, ArmadaFeatures, armada_octant_table
from .selector import MetaPartitioner, MetaPolicy, MetaScheduler

__all__ = [
    "ArmadaClassifier",
    "ArmadaFeatures",
    "armada_octant_table",
    "MetaPartitioner",
    "MetaPolicy",
    "MetaScheduler",
]
