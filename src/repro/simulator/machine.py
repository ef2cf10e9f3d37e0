"""Parallel-machine cost model (the C of the PAC-triple).

The paper's classification model consumes "system parameters (such as CPU
speed and communication bandwidth)".  Part II's experiments are trace-
driven and partitioner-relative, so only the *ratios* of these parameters
matter; the defaults below describe a 2003-era cluster (1 GFLOP/s-class
nodes, ~250 MB/s (Myrinet-class) interconnect, ~50 us MPI latency), the kind of machine
the paper's applications ran on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineModel"]


@dataclass(frozen=True, slots=True)
class MachineModel:
    """Per-operation costs of the target parallel computer.

    Parameters
    ----------
    seconds_per_cell_step :
        Wall time of one cell update (one local time step of one cell).
    bytes_per_cell :
        Payload of one transferred grid point (all state variables).
    bandwidth_bytes_per_s :
        Point-to-point sustained interconnect bandwidth.
    latency_seconds :
        Per-message cost (MPI latency + software overhead).
    sync_seconds :
        Cost of one global synchronization (barrier / collective).
    """

    seconds_per_cell_step: float = 2.0e-7
    bytes_per_cell: float = 40.0
    bandwidth_bytes_per_s: float = 2.5e8
    latency_seconds: float = 5.0e-5
    sync_seconds: float = 1.0e-4

    def __post_init__(self) -> None:
        for name in (
            "seconds_per_cell_step",
            "bytes_per_cell",
            "bandwidth_bytes_per_s",
            "latency_seconds",
            "sync_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- cost primitives -------------------------------------------------------
    def compute_seconds(self, cell_steps: float) -> float:
        """Time to update ``cell_steps`` cells-x-steps on one rank."""
        return cell_steps * self.seconds_per_cell_step

    def transfer_seconds(self, cells: float, messages: float = 0.0) -> float:
        """Time to move ``cells`` grid points in ``messages`` messages."""
        return (
            cells * self.bytes_per_cell / self.bandwidth_bytes_per_s
            + messages * self.latency_seconds
        )

    def comm_compute_ratio(self) -> float:
        """Seconds to move one grid point over seconds to update it once.

        The system-state weight the classification uses to combine
        ``beta_L`` and ``beta_C`` (octant approach step (c): "combining
        the results" of application- and system-state classification): on
        a network-starved machine (> 1) communication penalties matter
        proportionally more.
        """
        return (
            self.bytes_per_cell
            / self.bandwidth_bytes_per_s
            / self.seconds_per_cell_step
        )

    def faster_network(self, factor: float) -> "MachineModel":
        """A variant with ``factor``-times the bandwidth (system-state knob)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return MachineModel(
            seconds_per_cell_step=self.seconds_per_cell_step,
            bytes_per_cell=self.bytes_per_cell,
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s * factor,
            latency_seconds=self.latency_seconds / factor,
            sync_seconds=self.sync_seconds,
        )
