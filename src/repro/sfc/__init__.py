"""Space-filling curves (Morton / Hilbert) for domain-based partitioning."""

from .curves import (
    hilbert_key,
    hilbert_key_nd,
    max_order,
    morton_key,
    morton_key_nd,
    sfc_order_nd,
)

__all__ = [
    "hilbert_key",
    "hilbert_key_nd",
    "max_order",
    "morton_key",
    "morton_key_nd",
    "sfc_order_nd",
]
