"""The benchmark's four workloads, as operations on the public API.

Every workload uses the serial backend, one process at a time, P=16 and
the ``cluster-2003`` machine.  ``suite2d``, ``deep3d`` and ``traces``
are lists of engine specs computed into a fresh store; ``report-cli`` is
one command line run against a store that already holds the figure
results.  README.md says why each workload exists.
"""

from __future__ import annotations

import inspect

WORKLOADS = ("suite2d", "deep3d", "traces", "report-cli")
DEFAULT_SEED = 1
#: Seeds whose output digests are pinned in digests.json.
PINNED_SEEDS = (1, 2)
#: Workloads whose inputs do not depend on the seed.  ``repro report``
#: takes none.  tp3d:deep traces of different seeds differ by up to 1.5x
#: in replay cost (README.md), more than the gate's bound, and one costs
#: 33 s to generate, so deep3d replays the canonical trace.
SEEDLESS = ("deep3d", "report-cli")

NPROCS = 16
MACHINE = "cluster-2003"
SUITE2D_APPS = ("rm2d", "bl2d", "sc2d", "tp2d")
#: One partitioner per family, plus the meta-partitioner schedule.
SUITE2D_PARTITIONERS = (
    "nature+fable",
    "domain-sfc-hilbert",
    "patch-lpt",
    "sticky-sfc",
    "meta-partitioner",
)
#: sticky-sfc and nature+fable-balance stay out of deep3d (README.md).
DEEP3D_PARTITIONERS = ("nature+fable", "domain-sfc-hilbert", "patch-lpt")
#: rm2d and rm3d stay out: their shadow solvers alone take 31 s and 39 s.
TRACE_APPS = ("bl2d", "sc2d", "tp2d", "tp3d", "bl3d")

#: The command report-cli times, after ``python -m repro``.
REPORT_ARGS = ("report", "--scale", "paper", "--quiet")

#: The rate ``work_per_s`` is on each workload, and one unit of it.
WORK_UNITS = {
    "suite2d": ("steps_per_s", "regrid steps replayed"),
    "deep3d": ("steps_per_s", "regrid steps replayed"),
    "traces": ("snapshots_per_s", "snapshots generated"),
    "report-cli": ("commands_per_s", "report commands"),
}

#: What each workload's code imports; timed alone as startup.import_s.
IMPORTS = {
    "suite2d": "import repro.engine, repro.experiments",
    "deep3d": "import repro.engine, repro.experiments",
    "traces": "import repro.engine, repro.experiments",
    "report-cli": (
        "import repro.engine.cli, repro.experiments.figures, "
        "repro.experiments.report"
    ),
}


def kernel_seed(app: str, seed: int) -> int | None:
    """``seed`` for kernels that take one; ``None`` keeps the others'
    canonical trace (sc2d and sc3d have no seed parameter)."""
    from repro.apps import APPLICATIONS

    return seed if "seed" in inspect.signature(APPLICATIONS[app]).parameters else None


def specs(workload: str, seed: int) -> list:
    """The workload's engine specs, in execution order."""
    from repro.engine import penalties_spec, sim_spec, trace_spec

    common = {"nprocs": NPROCS, "machine": MACHINE}
    if workload == "suite2d":
        out = []
        for app in SUITE2D_APPS:
            app_seed = kernel_seed(app, seed)
            out += [
                sim_spec(app, "paper", partitioner=name, seed=app_seed, **common)
                for name in SUITE2D_PARTITIONERS
            ]
            out.append(penalties_spec(app, "paper", seed=app_seed, **common))
        return out
    if workload == "deep3d":
        return [
            sim_spec("tp3d", "deep", partitioner=name, **common)
            for name in DEEP3D_PARTITIONERS
        ] + [penalties_spec("tp3d", "deep", **common)]
    if workload == "traces":
        return [
            trace_spec(app, "paper", seed=kernel_seed(app, seed))
            for app in TRACE_APPS
        ]
    if workload == "report-cli":
        return report_specs()
    raise ValueError(f"unknown workload {workload!r}")


def report_specs() -> list:
    """The results ``repro report`` reads: figure 1 and figures 4-7."""
    from repro.engine import penalties_spec, sim_spec
    from repro.experiments.figures import FIGURE_APPS

    wanted = [sim_spec("bl2d", "paper", nprocs=NPROCS)]
    for app in FIGURE_APPS.values():
        wanted += [
            sim_spec(app, "paper", nprocs=NPROCS),
            penalties_spec(app, "paper", nprocs=NPROCS),
        ]
    return list({spec.key(): spec for spec in wanted}.values())


def input_specs(workload: str, seed: int) -> list:
    """What a fresh run store must hold before the timed phase.

    ``report-cli`` needs the traces beside the figure results: the
    engine's plan expands every spec's trace input, stored result or
    not, and would generate a missing trace inside the timed command.
    """
    if workload == "traces":
        return []
    wanted = specs(workload, seed)
    deps = [dep for spec in wanted for dep in spec.inputs()]
    if workload == "report-cli":
        deps += wanted
    return list({spec.key(): spec for spec in deps}.values())
