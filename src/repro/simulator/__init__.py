"""Trace-driven Berger--Colella execution simulator (Rutgers-simulator rebuild)."""

from .machine import MachineModel
from .raster_metrics import (
    ghost_exchange_cells,
    ghost_face_stats,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
)
from .simulator import SimulationResult, StepMetrics, TraceSimulator

__all__ = [
    "MachineModel",
    "ghost_exchange_cells",
    "ghost_face_stats",
    "ghost_message_pairs",
    "interlevel_transfer_cells",
    "migration_cells",
    "SimulationResult",
    "StepMetrics",
    "TraceSimulator",
]
