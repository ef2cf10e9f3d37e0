"""Flag-based regridding: error indicators and Berger--Rigoutsos clustering."""

from .berger_rigoutsos import ClusterParams, cluster_flags
from .flagging import buffer_flags, gradient_indicator

__all__ = [
    "ClusterParams",
    "cluster_flags",
    "buffer_flags",
    "gradient_indicator",
]
