"""Regeneration of every figure of the paper's evaluation.

One entry point per paper artifact:

* :func:`figure1` — BL2D dynamic behaviour under a static partitioner
  (load imbalance % and communication amount vs. time);
* :func:`figure_app` — Figures 4--7: per application, actual relative
  communication vs ``beta_C`` and actual relative data migration vs
  ``beta_m``, superimposed without scaling;
* :func:`shape_report` — quantified versions of the section 5.2 claims;
* :func:`dimension2_series` — the requested/offered trajectory of the
  dimension-II theory (section 4.3).

All functions return plain dicts of numpy arrays/floats so benchmarks and
notebooks can consume or print them directly (no plotting dependency).

Every figure is a store read: each submits its simulator replay and
model-sampling jobs to the content-addressed result store through
:mod:`repro.engine`, so regenerating a figure reuses work done by other
figures, ablations, benchmarks or CLI sweeps — and a warm store renders
the whole evaluation without re-simulating anything.
"""

from __future__ import annotations

from ..engine import penalties_spec, run_spec, sim_spec
from .analysis import (
    amplitude_ratio,
    best_lag,
    dominant_period,
    envelope_fraction,
    pearson,
)
from .workloads import APP_NAMES

__all__ = [
    "FIGURE_APPS",
    "figure1",
    "figure_app",
    "shape_report",
    "dimension2_series",
]

#: Figure number -> application, per the paper's layout.
FIGURE_APPS = {4: "rm2d", 5: "bl2d", 6: "sc2d", 7: "tp2d"}

DEFAULT_NPROCS = 16


def figure1(
    nprocs: int = DEFAULT_NPROCS,
    scale: str = "paper",
    store=None,
) -> dict:
    """Figure 1: dynamic behaviour of BL2D under a static P.

    Returns the per-step series the figure plots: load imbalance (in
    percent) and communication amount, against the time step.
    """
    result = run_spec(sim_spec("bl2d", scale, nprocs=nprocs), store=store)
    arrays = result.arrays
    return {
        "trace": result.meta["trace"],
        "nprocs": nprocs,
        "step": arrays["step"],
        # 100 * (max/avg - 1), identical to load_imbalance_percent on the
        # per-step loads (the simulator stores the max/avg ratio).
        "load_imbalance_percent": 100.0 * (arrays["load_imbalance"] - 1.0),
        "relative_comm": arrays["relative_comm"],
    }


def figure_app(
    name: str,
    nprocs: int = DEFAULT_NPROCS,
    scale: str = "paper",
    store=None,
) -> dict:
    """Figures 4-7: model penalties vs. measured behaviour for one app.

    Left panel data: the actual relative communication and the penalty
    ``beta_C``.  Right panel data: the actual relative data migration and
    the penalty ``beta_m``.  Both pairs are superimposed without scaling
    (section 5.1.4); trend statistics quantify the visual comparison.
    """
    if name not in APP_NAMES:
        raise ValueError(f"unknown application {name!r}")
    sim = run_spec(sim_spec(name, scale, nprocs=nprocs), store=store)
    model = run_spec(penalties_spec(name, scale, nprocs=nprocs), store=store)
    beta_c, beta_m = model.arrays["beta_c"], model.arrays["beta_m"]
    actual_comm = sim.arrays["relative_comm"]
    actual_mig = sim.arrays["relative_migration"]
    # Step 0 has no predecessor: drop it from migration statistics.
    mig_model = beta_m[1:]
    mig_actual = actual_mig[1:]
    return {
        "trace": sim.meta["trace"],
        "nprocs": nprocs,
        "step": model.arrays["step"],
        "actual_relative_comm": actual_comm,
        "beta_c": beta_c,
        "actual_relative_migration": actual_mig,
        "beta_m": beta_m,
        "comm_correlation": pearson(beta_c, actual_comm),
        "migration_correlation": pearson(mig_model, mig_actual),
        "comm_envelope_fraction": envelope_fraction(beta_c, actual_comm),
        "migration_amplitude_ratio": amplitude_ratio(mig_model, mig_actual),
        "migration_lead": best_lag(mig_model, mig_actual),
        "comm_period_model": dominant_period(beta_c),
        "comm_period_actual": dominant_period(actual_comm),
        "migration_period_model": dominant_period(mig_model),
        "migration_period_actual": dominant_period(mig_actual),
    }


def shape_report(
    nprocs: int = DEFAULT_NPROCS, scale: str = "paper", store=None
) -> dict[str, dict]:
    """Quantified section 5.2 claims for the whole suite.

    Per application: do the penalties co-move with the measurements
    (positive correlation), does ``beta_C`` form an aggressive upper
    envelope, is ``beta_m`` cautious in amplitude, and do the oscillation
    periods agree for the oscillatory applications?
    """
    out: dict[str, dict] = {}
    for name in APP_NAMES:
        fig = figure_app(name, nprocs=nprocs, scale=scale, store=store)
        out[name] = {
            "comm_correlation": fig["comm_correlation"],
            "migration_correlation": fig["migration_correlation"],
            "comm_envelope_fraction": fig["comm_envelope_fraction"],
            "migration_amplitude_ratio": fig["migration_amplitude_ratio"],
            "migration_lead": fig["migration_lead"],
            "periods": {
                "comm_model": fig["comm_period_model"],
                "comm_actual": fig["comm_period_actual"],
                "migration_model": fig["migration_period_model"],
                "migration_actual": fig["migration_period_actual"],
            },
        }
    return out


def dimension2_series(
    name: str = "bl2d",
    nprocs: int = DEFAULT_NPROCS,
    scale: str = "paper",
    store=None,
) -> dict:
    """The dimension-II trajectory: requested vs offered time (section 4.3)."""
    model = run_spec(penalties_spec(name, scale, nprocs=nprocs), store=store)
    return {
        "trace": model.meta["trace"],
        "step": model.arrays["step"],
        "requested_fraction": model.arrays["requested_fraction"],
        "requested_seconds": model.arrays["requested_seconds"],
        "offered_seconds": model.arrays["offered_seconds"],
        "normalized_grid_size": model.arrays["normalized_grid_size"],
        "dim2": model.arrays["dim2"],
    }
