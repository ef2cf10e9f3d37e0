"""Ablation experiments: modelling choices measured against alternatives.

* :func:`ablation_denominator` — section 4.4 argues for ``|H_t|`` as the
  ``beta_m`` denominator over ``|H_{t-1}|``; we measure which variant
  tracks the measured migration best across the suite.
* :func:`meta_vs_static` — the ArMADA-era proof-of-concept claim
  (section 3: "even with such a simple model, execution times were
  reduced") and the paper's conclusion ("tracking and adapting to this
  dynamic behavior lead to potentially large decreases in execution
  times"): modeled execution time of every static partitioner vs. the
  continuous meta-partitioner and the octant baseline.
* :func:`ablation_surface` — the patch-hull vs. region-surface choice
  inside the ``beta_C`` reconstruction.

Every simulator replay and penalty sweep is submitted through
:mod:`repro.engine`, so ablations share stored results with the figures
and benchmarks (the Nature+Fable replay of Figure 5 *is* the
``cluster-2003`` baseline row of :func:`meta_vs_static`), and
``meta_vs_static`` — the paper-scale 4 apps x 3 machines x 7 schedules
grid — can shard its 84 replays across worker processes via ``n_jobs``.
"""

from __future__ import annotations

import numpy as np

from ..engine import (
    STATIC_SUITE,
    create,
    penalties_spec,
    registry,
    run_spec,
    run_specs,
    sim_spec,
)
from ..model import communication_penalty
from ..simulator import MachineModel
from .analysis import pearson
from .figures import DEFAULT_NPROCS
from .workloads import APP_NAMES, paper_trace

__all__ = [
    "ablation_denominator",
    "ablation_surface",
    "machine_scenarios",
    "meta_vs_static",
    "regret_summary",
    "static_partitioner_suite",
]

#: Dynamic schedules included in the meta-vs-static comparison.
_DYNAMIC = ("armada-octant", "meta-partitioner")


def ablation_denominator(
    nprocs: int = DEFAULT_NPROCS, scale: str = "paper", store=None
) -> dict[str, dict[str, float]]:
    """Correlation of each ``beta_m`` denominator variant with reality."""
    out: dict[str, dict[str, float]] = {}
    for name in APP_NAMES:
        actual = run_spec(
            sim_spec(name, scale, nprocs=nprocs), store=store
        ).arrays["relative_migration"][1:]
        row: dict[str, float] = {}
        for denom in ("current", "previous", "max"):
            model = run_spec(
                penalties_spec(
                    name, scale, nprocs=nprocs, migration_denominator=denom
                ),
                store=store,
            )
            row[denom] = pearson(model.arrays["beta_m"][1:], actual)
        out[name] = row
    return out


def ablation_surface(
    nprocs: int = DEFAULT_NPROCS, scale: str = "paper", store=None
) -> dict[str, dict[str, float]]:
    """``beta_C`` surface convention: mean value and envelope behaviour."""
    out: dict[str, dict[str, float]] = {}
    for name in APP_NAMES:
        actual = run_spec(
            sim_spec(name, scale, nprocs=nprocs), store=store
        ).arrays["relative_comm"]
        trace = paper_trace(name, scale, store=store)
        row: dict[str, float] = {"mean_actual": float(actual.mean())}
        for surface in ("patch", "region"):
            series = np.array(
                [
                    communication_penalty(
                        s.hierarchy, nprocs=nprocs, surface=surface
                    )
                    for s in trace
                ]
            )
            row[f"mean_{surface}"] = float(series.mean())
            row[f"envelope_{surface}"] = float((series >= actual).mean())
        out[name] = row
    return out


def static_partitioner_suite() -> dict[str, object]:
    """The static P choices compared against the meta-partitioner."""
    return {name: create("partitioner", name) for name in STATIC_SUITE}


def machine_scenarios() -> dict[str, MachineModel]:
    """The three system states the dynamic-PAC experiment sweeps.

    The C component of the PAC-triple: the same application needs a
    different partitioner on a network-starved cluster than on a
    compute-bound one — which is exactly why a static P "seriously
    inhibits the potential for increasing scalability" (section 3).
    """
    return {name: create("machine", name) for name in registry("machine")}


def meta_vs_static(
    nprocs: int = DEFAULT_NPROCS,
    scale: str = "paper",
    machines: dict[str, MachineModel] | None = None,
    n_jobs: int = 1,
    store=None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Modeled execution time: every static P vs. dynamic PAC schedules.

    For each (application, machine) pair, runs every static partitioner,
    the ArMADA octant baseline and the continuous meta-partitioner, and
    records each schedule's *regret* — modeled seconds over the best
    static choice for that pair, as a fraction.  The paper's claim
    ("tracking and adapting ... lead to potentially large decreases in
    execution times") is quantified as: the meta-partitioner's worst-case
    regret across machines is small, while every fixed static choice has a
    large worst-case regret on some machine.

    The full grid is submitted to the engine in one batch: ``n_jobs``
    shards it across worker processes, and stored replays are reused.
    """
    if machines is None:
        machines = machine_scenarios()
    schedules = tuple(STATIC_SUITE) + _DYNAMIC
    specs = [
        sim_spec(
            name, scale, nprocs=nprocs, partitioner=label, machine=machine
        )
        for name in APP_NAMES
        for machine in machines.values()
        for label in schedules
    ]
    results = iter(run_specs(specs, n_jobs=n_jobs, store=store))
    out: dict[str, dict[str, dict[str, float]]] = {}
    for name in APP_NAMES:
        per_machine: dict[str, dict[str, float]] = {}
        for mlabel in machines:
            row: dict[str, float] = {
                label: next(results).meta["total_execution_seconds"]
                for label in schedules
            }
            best_static = min(
                v for k, v in row.items() if k not in _DYNAMIC
            )
            row["meta_regret"] = (
                row["meta-partitioner"] - best_static
            ) / best_static
            per_machine[mlabel] = row
        out[name] = per_machine
    return out


def regret_summary(
    table: dict[str, dict[str, dict[str, float]]]
) -> dict[str, float]:
    """Worst-case regret of every schedule across all (app, machine) pairs.

    The minimax view of :func:`meta_vs_static`: for each schedule (static
    or dynamic), its largest fractional excess over the per-pair best
    static choice.  A successful meta-partitioner has a far smaller value
    than any static schedule.
    """
    schedules: dict[str, float] = {}
    for per_machine in table.values():
        for row in per_machine.values():
            best_static = min(
                v
                for k, v in row.items()
                if k not in ("armada-octant", "meta-partitioner", "meta_regret")
            )
            for label, seconds in row.items():
                if label == "meta_regret":
                    continue
                regret = (seconds - best_static) / best_static
                schedules[label] = max(schedules.get(label, 0.0), regret)
    return schedules
