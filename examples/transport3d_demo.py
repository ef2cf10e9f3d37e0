"""3-D suite walkthrough: tp3d and bl3d through the dimension-general stack.

Generates the small deterministic 3-D traces — the meandering-vortex
transport benchmark (tp3d, seemingly random) and the corner-to-corner
Buckley--Leverett displacement (bl3d, oscillatory) — and replays each
under the domain-SFC partitioner, Nature+Fable and the ArMADA octant
schedule.  The 2 apps x 3 schedules grid is submitted to the experiment
engine as one sharded sweep (each worker owns one workload's trace), so
re-running the demo fetches every row from the content-addressed store.

Run:  python examples/transport3d_demo.py
"""

from repro.engine import run_specs, sim_spec
from repro.experiments import APP_NAMES_3D, paper_trace

NPROCS = 8
PARTITIONERS = ("domain-sfc-hilbert", "nature+fable", "armada-octant")


def main() -> None:
    for name in APP_NAMES_3D:
        trace = paper_trace(name, scale="small")
        print(f"trace: {trace.name}, {len(trace)} snapshots")
        for snap in trace:
            h = snap.hierarchy
            sizes = ", ".join(f"l{lev.index}:{lev.ncells}" for lev in h)
            print(f"  step {snap.step:3d}  ndim={h.ndim}  [{sizes}]")

    specs = [
        sim_spec(name, "small", nprocs=NPROCS, partitioner=part)
        for name in APP_NAMES_3D
        for part in PARTITIONERS
    ]
    # Two worker processes; n_jobs=1 runs the same sweep in this
    # process and publishes identical bytes.
    results = run_specs(specs, n_jobs=2, progress=print)

    print(f"\nreplay on {NPROCS} ranks:")
    header = (
        f"{'app':<6s} {'partitioner':<20s} {'imbalance':>9s} "
        f"{'rel comm':>9s} {'rel mig':>9s} {'seconds':>9s}"
    )
    print(header)
    print("-" * len(header))
    for spec, result in zip(specs, results):
        s = result.meta["summary"]
        print(
            f"{spec.app:<6s} {spec.partitioner:<20s} "
            f"{s['mean_imbalance']:9.3f} "
            f"{s['mean_relative_comm']:9.3f} "
            f"{s['mean_relative_migration']:9.3f} "
            f"{s['total_seconds']:9.4f}"
        )


if __name__ == "__main__":
    main()
