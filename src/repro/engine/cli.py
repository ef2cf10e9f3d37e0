"""The ``python -m repro`` command line: drive the experiment engine.

Subcommands
-----------
``repro run``
    Execute (or fetch) a single job and print its summary or series.
``repro sweep``
    Fan a grid of jobs — apps x partitioners x machines — through the
    engine, in this process (``--n-jobs 1``, the default) or over a pool
    of worker processes (``--n-jobs N``).  Dependency resolution
    schedules missing workload traces first; already-stored results are
    skipped, so re-running a killed sweep resumes where it left off.
``repro plan``
    Resolve the same grid into its dependency-aware execution plan
    *without running it*: what the store already holds vs. what would be
    computed, layer by layer.
``repro graph``
    Print the spec dependency graph (``--dot`` for Graphviz).
``repro report``
    Regenerate the paper's figures through the engine and render them as
    ASCII charts (``repro.experiments.report``); ``--timings`` instead
    aggregates span timings across every telemetry run profile in the
    store.
``repro profile``
    Render the per-run timing tree (span hierarchy, self/total time,
    pair-kernel pruning ratios) a telemetry-enabled run left behind, or
    the error and traceback of a failure record.
``repro describe``
    Introspect the component registries: every registered app,
    partitioner, schedule, machine and scale with its parameter schema.
``repro cache ls | clear | gc | verify``
    Inspect, empty, garbage-collect or integrity-check the
    content-addressed store (``ls`` also flags every failed run the
    store lacks, ``ls --json`` emits a machine-readable listing; ``gc``
    takes ``--max-bytes`` / ``--older-than`` with an LRU-by-mtime
    policy; ``verify`` scans for corrupt entries after hard kills and
    removes them with ``--remove``).

The store location is ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``);
``--cache-dir`` overrides it per invocation.  ``--telemetry json|chrome``
(or ``$REPRO_TELEMETRY``) turns on span tracing for any run/sweep
invocation: each executed spec leaves one run profile (and, with
``chrome``, one Chrome trace) under ``<store>/telemetry/``, never
touching content hashes.

A usage error — an unknown app, partitioner, machine or component kind,
a ``--param`` that is not ``name=value`` or whose value does not fit its
parameter's type, ``cache gc`` without a budget — prints one ``error:``
line and exits 2; a job that raises one leaves its failure record first.
A reader that closes the pipe early (``repro cache ls | head -3``) ends
the command quietly with exit code 141, as a shell reports a tool that
``SIGPIPE`` killed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from ..registry import COMPONENT_KINDS, registry
from ..registry import describe as describe_components
from ..telemetry import TELEMETRY_ENV, TELEMETRY_MODES
from .executor import run_spec, run_specs
from .graph import Plan, build_plan
from .components import STATIC_SUITE
from .spec import RunSpec, penalties_spec, sim_spec, trace_spec
from .store import ResultStore, default_store

__all__ = ["main", "build_parser"]


def _store_from(args) -> ResultStore:
    if getattr(args, "cache_dir", None):
        return ResultStore(args.cache_dir)
    return default_store()


def _split(value: str) -> list[str]:
    return [v for v in (part.strip() for part in value.split(",")) if v]


def _resolve_apps(value: str) -> list[str]:
    from ..experiments.workloads import APP_NAMES, app_names

    aliases = {
        "2d": list(APP_NAMES),
        "3d": list(app_names(3)),
        "all": list(app_names()),
    }
    if value in aliases:
        return aliases[value]
    apps = _split(value)
    known = registry("app")
    for app in apps:
        if app not in known:
            raise ValueError(
                f"unknown app {app!r}; choose from {tuple(known)} "
                f"or the aliases 2d/3d/all"
            )
    return apps


def _resolve_partitioners(value: str) -> list[str]:
    partitioners = registry("partitioner")
    schedules = registry("schedule")
    aliases = {
        "suite": list(STATIC_SUITE),
        "all": list(partitioners) + list(schedules),
    }
    if value in aliases:
        return aliases[value]
    names = _split(value)
    for name in names:
        if name not in partitioners and name not in schedules:
            raise ValueError(
                f"unknown partitioner {name!r}; choose from "
                f"{tuple(partitioners) + tuple(schedules)} or suite/all"
            )
    return names


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        try:
            params[name] = json.loads(raw)
        except json.JSONDecodeError:
            params[name] = raw
    return params


_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}
_DURATION_SUFFIXES = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _parse_size(value: str) -> int:
    """``500M`` / ``2g`` / ``1048576`` -> bytes."""
    raw = value.strip().lower().removesuffix("b")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        return int(float(raw) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a size like 500M or 2G, got {value!r}"
        ) from None


def _parse_duration(value: str) -> float:
    """``7d`` / ``12h`` / ``3600`` -> seconds."""
    raw = value.strip().lower()
    factor = 1
    if raw and raw[-1] in _DURATION_SUFFIXES:
        factor = _DURATION_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        return float(raw) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a duration like 7d or 12h, got {value!r}"
        ) from None


def _sweep_specs(args) -> list[RunSpec]:
    machines = registry("machine")
    specs: list[RunSpec] = []
    for app in _resolve_apps(args.apps):
        for machine in _split(args.machines):
            if machine not in machines:
                raise ValueError(
                    f"unknown machine {machine!r}; choose from "
                    f"{tuple(machines)}"
                )
            for name in _resolve_partitioners(args.partitioners):
                if args.kind == "sim":
                    specs.append(
                        sim_spec(
                            app,
                            args.scale,
                            nprocs=args.nprocs,
                            partitioner=name,
                            machine=machine,
                        )
                    )
                elif args.kind == "penalties":
                    spec = penalties_spec(
                        app, args.scale, nprocs=args.nprocs, machine=machine
                    )
                    if spec not in specs:
                        specs.append(spec)
                else:  # trace
                    spec = trace_spec(app, args.scale)
                    if spec not in specs:
                        specs.append(spec)
    return specs


def _print_sweep_table(results) -> None:
    header = (
        f"{'app':<6} {'partitioner':<22} {'machine':<13} {'P':>4} "
        f"{'steps':>6} {'total_s':>10} {'imb%':>8} {'comm':>7} {'mig':>7}"
    )
    print(header)
    print("-" * len(header))
    for res in results:
        spec = res.spec
        machine = spec.machine if isinstance(spec.machine, str) else "custom"
        if spec.kind == "sim":
            summary = res.meta["summary"]
            imb = 100.0 * (summary["mean_imbalance"] - 1.0)
            print(
                f"{spec.app:<6} {spec.partitioner:<22} {machine:<13} "
                f"{spec.nprocs:>4} {res.arrays['step'].size:>6} "
                f"{res.meta['total_execution_seconds']:>10.3f} "
                f"{imb:>8.2f} {summary['mean_relative_comm']:>7.3f} "
                f"{summary['mean_relative_migration']:>7.3f}"
            )
        elif spec.kind == "penalties":
            beta_c = res.arrays["beta_c"]
            beta_m = res.arrays["beta_m"]
            print(
                f"{spec.app:<6} {'(penalties)':<22} {machine:<13} "
                f"{spec.nprocs:>4} {beta_c.size:>6} {'-':>10} {'-':>8} "
                f"{beta_c.mean():>7.3f} {beta_m.mean():>7.3f}"
            )
        else:
            stats = res.meta["stats"]
            print(
                f"{spec.app:<6} {'(trace)':<22} {'-':<13} {'-':>4} "
                f"{stats['nsteps']:>6} {'-':>10} {'-':>8} {'-':>7} {'-':>7}"
            )


def _cmd_run(args) -> int:
    store = _store_from(args)
    if args.kind == "sim":
        spec = sim_spec(
            args.app,
            args.scale,
            nprocs=args.nprocs,
            partitioner=args.partitioner,
            params=_parse_params(args.param),
            machine=args.machine,
            seed=args.seed,
        )
    elif args.kind == "penalties":
        spec = penalties_spec(
            args.app, args.scale, nprocs=args.nprocs, machine=args.machine,
            seed=args.seed,
        )
    else:
        spec = trace_spec(args.app, args.scale, seed=args.seed)
    cached = store.has(spec.key())
    result = run_spec(spec, store=store, force=args.force)
    if args.json:
        print(json.dumps({"key": result.key, "meta": result.meta}, indent=1,
                         sort_keys=True))
        return 0
    print(f"{spec.label()}  [{'stored' if cached and not args.force else 'computed'}]")
    print(f"key:   {result.key}")
    print(f"store: {store.root}")
    for name, value in sorted(result.meta.items()):
        if not isinstance(value, dict):
            print(f"  {name}: {value}")
    if args.series:
        from ..experiments.analysis import series_stats

        for name in sorted(result.arrays):
            stats = series_stats(result.arrays[name])
            print(
                f"  {name:<22} mean={stats['mean']:<12.6g} "
                f"min={stats['min']:<12.6g} max={stats['max']:<12.6g}"
            )
    return 0


def _cmd_sweep(args) -> int:
    store = _store_from(args)
    specs = _sweep_specs(args)
    # One dependency-aware resolution pass for the summary numbers (the
    # executor rebuilds its own against the live store).
    counts = build_plan(specs, store, force=args.force).counts()
    results = run_specs(
        specs,
        n_jobs=args.n_jobs,
        store=store,
        force=args.force,
        progress=None if args.quiet else print,
    )
    _print_sweep_table(results)
    implicit = counts["implicit_compute"]
    print(
        f"\n{len(results)} results ({counts['compute']} computed, "
        f"{len(results) - counts['compute']} reused"
        + (f", +{implicit} trace input{'s' if implicit != 1 else ''}"
           if implicit else "")
        + f") — store: {store.root}"
    )
    return 0


def _print_plan(plan: Plan) -> None:
    counts = plan.counts()
    stored = plan.stored()
    print(
        f"plan: {counts['submitted']} submitted, {counts['stored']} stored, "
        f"{counts['compute']} to compute"
        + (
            f" (+{counts['implicit_compute']} trace "
            f"input{'s' if counts['implicit_compute'] != 1 else ''})"
            if counts["implicit_compute"]
            else ""
        )
    )
    if stored:
        print(f"\nresolved by the store ({len(stored)}):")
        for node in stored:
            origin = "" if node.submitted else "  [input]"
            print(f"  hit  {node.spec.label():<44} {node.key[:12]}{origin}")
    unneeded = [n for n in plan.nodes.values() if not n.stored and not n.pending]
    if unneeded:
        print(f"\nnot needed: every consumer is stored ({len(unneeded)}):")
        for node in unneeded:
            print(f"  skip {node.spec.label():<44} {node.key[:12]}  [input]")
    for depth, layer in enumerate(plan.layers):
        print(f"\nlayer {depth} ({len(layer)} jobs):")
        for key in layer:
            node = plan.node(key)
            origin = "" if node.submitted else "  [input]"
            print(f"  run  {node.spec.label():<44} {node.key[:12]}{origin}")
    if not plan.layers:
        print("\nnothing to compute: the store resolves every spec.")


def _cmd_plan(args) -> int:
    store = _store_from(args)
    plan = build_plan(_sweep_specs(args), store)
    _print_plan(plan)
    print(f"\nstore: {store.root}")
    return 0


def _node_state(node) -> str:
    if node.stored:
        return "stored"
    return "compute" if node.pending else "not needed"


def _cmd_graph(args) -> int:
    store = _store_from(args)
    plan = build_plan(_sweep_specs(args), store)
    if args.dot:
        print("digraph specs {")
        print("  rankdir=LR;")
        for node in plan.nodes.values():
            state = _node_state(node)
            shape = "box" if node.submitted else "ellipse"
            print(
                f'  "{node.key[:12]}" [label="{node.spec.label()}\\n{state}"'
                f", shape={shape}];"
            )
        for consumer, produced in plan.edges():
            print(f'  "{produced[:12]}" -> "{consumer[:12]}";')
        print("}")
        return 0
    for node in plan.nodes.values():
        state = _node_state(node)
        if node.inputs:
            for input_key in node.inputs:
                input_node = plan.nodes[input_key]
                print(
                    f"{node.spec.label()} [{state}] <- "
                    f"{input_node.spec.label()} [{_node_state(input_node)}]"
                )
        else:
            print(f"{node.spec.label()} [{state}]")
    return 0


def _figure_list(value: str) -> list[int]:
    """``--figures``: a comma list of paper figure numbers, each kept
    once, in ascending order; an empty list, a non-integer and an
    unknown number are usage errors."""
    from ..experiments.figures import FIGURE_APPS

    choices = (1, *sorted(FIGURE_APPS))
    try:
        wanted = sorted({int(part) for part in _split(value)})
    except ValueError:
        wanted = []
    if not wanted or not set(wanted) <= set(choices):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of figure numbers from "
            f"{','.join(map(str, choices))}, got {value!r}"
        )
    return wanted


def _cmd_report(args) -> int:
    from ..experiments.figures import FIGURE_APPS, figure1, figure_app
    from ..experiments.report import render_figure1, render_figure_app

    store = _store_from(args)
    if args.timings:
        from ..telemetry import aggregate_timings, render_timings

        doc = aggregate_timings(store.root)
        if not doc["runs"]:
            print(
                f"no run profiles under {store.root}/telemetry — execute "
                "runs with --telemetry json|chrome (or REPRO_TELEMETRY) "
                "first",
                file=sys.stderr,
            )
            return 1
        print(render_timings(doc))
        return 0
    # Warm the store for every figure in one sharded batch, then render.
    specs: list[RunSpec] = []
    for number in args.figures:
        if number == 1:
            specs.append(sim_spec("bl2d", args.scale, nprocs=args.nprocs))
        else:
            app = FIGURE_APPS[number]
            specs.append(sim_spec(app, args.scale, nprocs=args.nprocs))
            specs.append(penalties_spec(app, args.scale, nprocs=args.nprocs))
    run_specs(specs, n_jobs=args.n_jobs, store=store,
              progress=None if args.quiet else print)
    for index, number in enumerate(args.figures):
        if index:
            print("\n" + "=" * 78 + "\n")
        if number == 1:
            print(render_figure1(
                figure1(scale=args.scale, nprocs=args.nprocs, store=store)
            ))
        else:
            fig = figure_app(
                FIGURE_APPS[number], scale=args.scale,
                nprocs=args.nprocs, store=store,
            )
            print(render_figure_app(fig, figure_number=number))
    return 0


def _cmd_describe(args) -> int:
    kinds = [args.kind] if args.kind else list(COMPONENT_KINDS)
    if args.kind and args.kind not in COMPONENT_KINDS:
        raise ValueError(
            f"unknown component kind {args.kind!r}; choose from "
            f"{COMPONENT_KINDS}"
        )
    doc = {kind: describe_components(kind) for kind in kinds}
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True, default=repr))
        return 0
    for kind in kinds:
        entries = doc[kind]
        print(f"{kind} ({len(entries)} registered)")
        for name, entry in entries.items():
            print(f"  {name:<24} {entry['description']}")
            for param in entry["params"] or ():
                if param["required"]:
                    detail = "required"
                else:
                    detail = f"default={param['default']!r}"
                kind_note = f": {param['type']}" if param.get("type") else ""
                print(f"      --param {param['name']}{kind_note}  ({detail})")
        print()
    return 0


def _cmd_profile(args) -> int:
    from ..telemetry import load_run_profile, render_profile

    store = _store_from(args)
    try:
        doc = load_run_profile(store.root, args.key)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    print(render_profile(doc))
    return 0


def _cmd_cache(args) -> int:
    store = _store_from(args)
    if args.cache_cmd == "clear":
        removed = store.clear(kind=args.kind)
        print(f"removed {removed} entries from {store.root}")
        return 0
    if args.cache_cmd == "verify":
        problems = store.verify(remove=args.remove)
        if not problems:
            print(f"store {store.root} is sound (no corrupt entries)")
            return 0
        for doc in problems:
            key = doc["key"][:12] if doc["key"] else "(staging)"
            state = "removed" if doc["removed"] else "found"
            print(f"{state}  {key:<14} {doc['problem']}")
        kept = sum(1 for doc in problems if not doc["removed"])
        print(
            f"{len(problems)} problem{'s' if len(problems) != 1 else ''} "
            f"in {store.root}"
            + ("" if args.remove else " (re-run with --remove to clean up)")
        )
        return 1 if kept else 0
    if args.cache_cmd == "gc":
        if args.max_bytes is None and args.older_than is None:
            raise ValueError("cache gc needs --max-bytes and/or --older-than")
        removed, freed = store.gc(
            max_bytes=args.max_bytes, older_than_seconds=args.older_than
        )
        kept = [doc for _, doc in store.iter_results()]
        remaining = sum(doc["nbytes"] for doc in kept)
        print(
            f"evicted {removed} entries ({freed / 1e6:.1f} MB reclaimed) "
            f"from {store.root}"
        )
        print(
            f"store now holds {len(kept)} entries, {remaining / 1e6:.1f} MB"
        )
        return 0
    # Corrupt entries are warn-skipped (and retired) by the walker.
    entries = list(store.iter_results(kind=args.kind))
    now = time.time()
    if args.json:
        docs = []
        for key, doc in entries:
            spec = RunSpec.from_json(doc["spec"])
            docs.append({
                "key": key,
                "kind": doc["kind"],
                "app": spec.app,
                "scale": spec.scale,
                "nprocs": spec.nprocs,
                "label": spec.label(),
                "bytes": doc["nbytes"],
                "age_seconds": round(max(0.0, now - doc["mtime"]), 3),
            })
        print(json.dumps(docs, indent=1, sort_keys=True))
        return 0
    total = sum(doc["nbytes"] for _, doc in entries)
    print(f"store: {store.root} ({len(entries)} entries, {total / 1e6:.1f} MB)")
    if entries:
        print(f"{'key':<14} {'kind':<10} {'job':<40} {'kB':>8} {'age':>8}")
        for key, doc in entries:
            spec = RunSpec.from_json(doc["spec"])
            age = max(0.0, now - doc["mtime"])
            if age >= 86400:
                age_str = f"{age / 86400:.1f}d"
            elif age >= 3600:
                age_str = f"{age / 3600:.1f}h"
            else:
                age_str = f"{age / 60:.1f}m"
            print(
                f"{key[:12]:<14} {doc['kind']:<10} "
                f"{spec.label():<40} {doc['nbytes'] / 1024:>8.1f} "
                f"{age_str:>8}"
            )
    from ..telemetry import failure_records

    for doc in failure_records(store.root, skip=store.has):
        if args.kind in (None, doc.get("kind")):
            print(
                f"FAILED {doc.get('key', '?')[:12]} "
                f"{doc.get('label', '?')}: {doc.get('error', '?')}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiment engine: dependency-aware sweeps over a "
        "content-addressed result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, nprocs=True):
        p.add_argument("--scale", default="paper",
                       help="workload scale (default: paper)")
        p.add_argument(
            "--cache-dir", default=None,
            help="store location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        telemetry_opt(p)
        if nprocs:
            p.add_argument("--nprocs", type=int, default=16,
                           help="simulated processor count")

    def telemetry_opt(p):
        p.add_argument(
            "--telemetry", default=None, choices=list(TELEMETRY_MODES),
            help="span tracing for this invocation (sets $REPRO_TELEMETRY; "
            "json = run profiles, chrome = run profiles + per-run Chrome "
            "traces; default: off)",
        )

    def grid(p):
        p.add_argument("--apps", default="2d",
                       help="comma list, or 2d / 3d / all (default: 2d)")
        p.add_argument("--partitioners", default="suite",
                       help="comma list, or suite / all (default: suite)")
        p.add_argument("--machines", default="cluster-2003",
                       help="comma list of machine scenarios "
                       "(see `repro describe --kind machine`)")
        p.add_argument("--kind", default="sim",
                       choices=["sim", "penalties", "trace"])

    run = sub.add_parser("run", help="run (or fetch) one job")
    common(run)
    run.add_argument("--app", required=True)
    run.add_argument("--kind", default="sim",
                     choices=["sim", "penalties", "trace"])
    run.add_argument("--partitioner", default="nature+fable")
    run.add_argument("--param", action="append", default=[],
                     metavar="NAME=VALUE",
                     help="partitioner constructor override (repeatable)")
    run.add_argument("--machine", default="cluster-2003")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--force", action="store_true",
                     help="recompute even if stored")
    run.add_argument("--json", action="store_true", help="print meta as JSON")
    run.add_argument("--series", action="store_true",
                     help="print per-series statistics")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run an app x partitioner x machine grid, sharded"
    )
    common(sweep)
    grid(sweep)
    sweep.add_argument("--n-jobs", type=int, default=1,
                       help="worker processes (1 = this process, no pool)")
    sweep.add_argument("--force", action="store_true")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    sweep.set_defaults(func=_cmd_sweep)

    plan = sub.add_parser(
        "plan",
        help="resolve a sweep's dependency plan without running it",
    )
    common(plan)
    grid(plan)
    plan.set_defaults(func=_cmd_plan)

    graph = sub.add_parser(
        "graph", help="print a sweep's spec dependency graph"
    )
    common(graph)
    grid(graph)
    graph.add_argument("--dot", action="store_true",
                       help="emit Graphviz DOT instead of text")
    graph.set_defaults(func=_cmd_graph)

    report = sub.add_parser(
        "report", help="regenerate paper figures through the engine"
    )
    common(report)
    report.add_argument("--figures", default="1,4,5,6,7", type=_figure_list,
                        help="comma list of figure numbers (default: all)")
    report.add_argument("--n-jobs", type=int, default=1)
    report.add_argument("--quiet", action="store_true")
    report.add_argument("--timings", action="store_true",
                        help="aggregate telemetry span timings across the "
                        "store's run profiles instead of figures")
    report.set_defaults(func=_cmd_report)

    profile = sub.add_parser(
        "profile",
        help="render the timing tree a telemetry-enabled run recorded, "
        "or the error of a failed run",
    )
    profile.add_argument("key", help="store key (or unique prefix)")
    profile.add_argument("--cache-dir", default=None)
    profile.add_argument("--json", action="store_true",
                         help="print the raw run-profile document")
    profile.set_defaults(func=_cmd_profile)

    desc = sub.add_parser(
        "describe", help="introspect the component registries"
    )
    desc.add_argument("--kind", default=None,
                      help="one component kind (default: all declared kinds)")
    desc.add_argument("--json", action="store_true")
    desc.set_defaults(func=_cmd_describe)

    cache = sub.add_parser(
        "cache",
        help="inspect, empty, garbage-collect or verify the result store",
    )
    cache.add_argument("cache_cmd", choices=["ls", "clear", "gc", "verify"])
    cache.add_argument("--kind", default=None,
                       choices=["trace", "sim", "penalties"],
                       help="restrict clear / ls to one kind")
    cache.add_argument("--json", action="store_true",
                       help="ls: machine-readable listing (key, app, "
                       "scale, bytes, age)")
    cache.add_argument("--remove", action="store_true",
                       help="verify: delete the corrupt entries found")
    cache.add_argument("--max-bytes", type=_parse_size, default=None,
                       metavar="SIZE",
                       help="gc: evict LRU entries until under SIZE "
                       "(e.g. 500M, 2G)")
    cache.add_argument("--older-than", type=_parse_duration, default=None,
                       metavar="AGE",
                       help="gc: evict entries untouched for AGE "
                       "(e.g. 7d, 12h)")
    cache.add_argument("--cache-dir", default=None)
    cache.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # Exported (not just stashed on args) so process-pool shards
    # inherit the telemetry mode.
    if getattr(args, "telemetry", None):
        os.environ[TELEMETRY_ENV] = args.telemetry
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        # Spec/registry validation (bad seed, schedule params, ...) is a
        # usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted (finished shards remain in the store)",
              file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # interpreter's exit flush of the unwritten rest stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
