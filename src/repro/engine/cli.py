"""The ``python -m repro`` command line: drive the experiment engine.

Subcommands
-----------
``repro run``
    Execute (or fetch) a single job and print its summary or series.
``repro sweep``
    Fan a grid of jobs — apps x partitioners x machines — through an
    execution backend (``--backend serial|process|cluster``; ``cluster``
    auto-spawns local daemons via ``--workers N``).  Dependency
    resolution schedules missing workload traces first; already-stored
    results are skipped, so re-running a killed sweep resumes where it
    left off.
``repro worker``
    Run one long-lived worker daemon: claim leases from the shared job
    queue next to the store, execute specs, publish results, heartbeat.
    Start any number of these (on any host that mounts the store) and
    point ``repro sweep --backend cluster`` at the same cache dir.
``repro plan``
    Resolve the same grid into its dependency-aware execution plan
    *without running it*: what the store already holds vs. what would be
    computed, layer by layer (``--backend`` adds the backend's placement
    report).
``repro graph``
    Print the spec dependency graph (``--dot`` for Graphviz).
``repro report``
    Regenerate the paper's figures through the engine and render them as
    ASCII charts (``repro.experiments.report``); ``--timings`` instead
    aggregates span timings across every telemetry run profile in the
    store.
``repro profile``
    Render the per-run timing tree (span hierarchy, self/total time,
    pair-kernel pruning ratios) a telemetry-enabled run left behind.
``repro top``
    One-shot (or ``--watch``) status table of a cluster sweep: worker
    registry with heartbeat ages, live leases, waiting tickets, recent
    failures — read straight off the shared queue directory.
``repro describe``
    Introspect the component registries: every registered app,
    partitioner, schedule, machine and scale with its parameter schema.
``repro cache ls | clear | gc | verify``
    Inspect, empty, garbage-collect or integrity-check the
    content-addressed store (``ls --json`` emits a machine-readable
    listing; ``gc`` takes ``--max-bytes`` / ``--older-than`` with an
    LRU-by-mtime policy; ``verify`` scans for corrupt entries after
    hard kills and removes them with ``--remove``).

The store location is ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``);
``--cache-dir`` overrides it per invocation.  ``--telemetry json|chrome``
(or ``$REPRO_TELEMETRY``) turns on span tracing for any run/sweep/worker
invocation; event logs land under ``<store>/telemetry/`` and never touch
content hashes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Sequence

from ..registry import describe as describe_components
from ..registry import registry
from ..telemetry import TELEMETRY_ENV, TELEMETRY_MODES
from .backends import ClusterJobError, resolve_backend
from .executor import run_spec, run_specs
from .graph import Plan, build_plan
from .components import STATIC_SUITE
from .spec import RunSpec, penalties_spec, sim_spec, trace_spec
from .store import ResultStore, default_store

__all__ = ["main", "build_parser"]


#: ``--log-level`` vocabulary, mapped onto the stdlib levels.
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level: str) -> None:
    """Configure the ``repro`` logger tree for CLI output.

    Broker and worker chatter goes through ``logging`` (timestamped,
    filterable by ``--log-level``) instead of bare prints; idempotent so
    tests can call :func:`main` repeatedly in one process.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level.upper()))
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(levelname)-7s %(name)s: %(message)s",
                datefmt="%Y-%m-%dT%H:%M:%S",
            )
        )
        logger.addHandler(handler)
        logger.propagate = False


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
            raise SystemExit(
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
            raise SystemExit(
                f"unknown partitioner {name!r}; choose from "
                f"{tuple(partitioners) + tuple(schedules)} or suite/all"
            )
    return names


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects name=value, got {pair!r}")
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
                raise SystemExit(
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


def _resolve_cli_backend(args):
    """Build the backend an invocation selected, or None for the default."""
    backend = getattr(args, "backend", None)
    if getattr(args, "workers", None) and backend != "cluster":
        raise SystemExit("--workers needs --backend cluster")
    if backend is None:
        return None
    if backend not in registry("backend"):
        raise SystemExit(
            f"unknown backend {backend!r}; choose from "
            f"{tuple(registry('backend'))}"
        )
    return resolve_backend(
        backend,
        n_jobs=getattr(args, "n_jobs", 1),
        workers=getattr(args, "workers", None),
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
    backend = _resolve_cli_backend(args)
    if backend is not None:
        result = run_specs(
            [spec], store=store, force=args.force, backend=backend
        )[0]
    else:
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
    server = None
    if args.metrics_port is not None:
        from ..telemetry import MetricsServer

        server = MetricsServer(port=args.metrics_port).start()
        if not args.quiet:
            print(
                f"broker metrics on "
                f"http://{server.host}:{server.port}/metrics"
            )
    try:
        results = run_specs(
            specs,
            n_jobs=args.n_jobs,
            store=store,
            force=args.force,
            progress=None if args.quiet else print,
            # The resolved instance already carries --workers; passing it
            # through run_specs' workers= too would double-configure it.
            backend=_resolve_cli_backend(args),
            verbose=args.verbose,
        )
    finally:
        if server is not None:
            server.stop()
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
    stored = [node for node in plan.nodes.values() if node.stored]
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
    backend = _resolve_cli_backend(args)
    if backend is not None:
        print("\nplacement:")
        for line in backend.placement(plan, store):
            print(f"  {line}")
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
    # The built-in scales register when the workload layer imports; pull
    # it in so `describe` sees them (and any entry-point plugins) even
    # though this command never builds a spec.
    from ..experiments import workloads  # noqa: F401
    from ..registry import component_kinds

    kinds = [args.kind] if args.kind else list(component_kinds())
    if args.kind and args.kind not in component_kinds():
        raise SystemExit(
            f"unknown component kind {args.kind!r}; choose from "
            f"{component_kinds()}"
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


def _cmd_worker(args) -> int:
    import signal

    from ..telemetry import MetricsServer, flight_dump, session
    from .backends import JobQueue, Worker

    # --quiet survives as shorthand for --log-level warning (per-job
    # lines are INFO); an explicit --log-level wins.
    level = args.log_level or ("warning" if args.quiet else "info")
    _setup_logging(level)
    worker_logger = logging.getLogger("repro.worker")
    store = _store_from(args)
    queue = (
        JobQueue(args.queue_dir)
        if args.queue_dir
        else JobQueue.for_store(store)
    )
    worker = Worker(
        store,
        queue,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        heartbeat_interval=args.heartbeat_interval,
        idle_timeout=args.idle_timeout,
        max_jobs=args.max_jobs,
        die_after_claims=args.die_after_claims,
        log=worker_logger.info,
    )

    def _worker_health() -> dict:
        return {
            "status": "ok",
            "worker_id": worker.worker_id,
            "jobs_done": worker.jobs_done,
            "jobs_failed": worker.jobs_failed,
            "current_job": worker.current_job,
        }

    server = None
    if args.metrics_port is not None:
        server = MetricsServer(
            port=args.metrics_port, host=args.metrics_host,
            health=_worker_health,
        ).start()
        worker_logger.info(
            "worker %s metrics on http://%s:%d/metrics",
            worker.worker_id, server.host, server.port,
        )

    # SIGTERM (the broker reaping auto-spawned daemons, systemd, ...)
    # requests a graceful exit after the current job.  A TERM that lands
    # *mid-job* is a kill worth a postmortem — dump the flight recorder;
    # an idle TERM is just the broker tidying up, no black box needed.
    def _on_sigterm(signum, frame):
        if worker.current_job is not None:
            flight_dump(
                store.root, "sigterm-mid-job",
                extra={"worker_id": worker.worker_id,
                       "job": worker.current_job},
            )
        worker.stop()

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        with session(store.root, name=f"worker-{worker.worker_id}",
                     meta={"worker_id": worker.worker_id}):
            done = worker.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        done = worker.jobs_done
    finally:
        if server is not None:
            server.stop()
    worker_logger.info(
        "worker %s exiting: %d completed, %d failed",
        worker.worker_id, done, worker.jobs_failed,
    )
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


def _cmd_top(args) -> int:
    from ..telemetry import cluster_status_doc, render_cluster_status
    from .backends import JobQueue

    store = _store_from(args)
    queue = (
        JobQueue(args.queue_dir)
        if args.queue_dir
        else JobQueue.for_store(store)
    )
    if args.json:
        if args.watch:
            raise SystemExit("--json takes one snapshot; drop --watch")
        print(json.dumps(
            cluster_status_doc(
                store, queue, lease_timeout=args.lease_timeout
            ),
            indent=1, sort_keys=True,
        ))
        return 0
    if not args.watch:
        print(render_cluster_status(
            store, queue, lease_timeout=args.lease_timeout
        ))
        return 0
    try:
        while True:  # pragma: no branch - exits via KeyboardInterrupt
            snapshot = render_cluster_status(
                store, queue, lease_timeout=args.lease_timeout
            )
            # Clear screen + home, like top(1); plain rewrite keeps it
            # usable under watch(1) or a dumb terminal too.
            print(f"\x1b[2J\x1b[H{snapshot}", flush=True)
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


def _cmd_health(args) -> int:
    from ..telemetry import evaluate_health
    from .backends import JobQueue

    store = _store_from(args)
    queue = (
        JobQueue(args.queue_dir)
        if args.queue_dir
        else JobQueue.for_store(store)
    )
    doc = evaluate_health(
        store, queue,
        lease_timeout=args.lease_timeout,
        max_failures=args.max_failures,
    )
    healthy = doc["status"] == "ok"
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0 if healthy else 1
    print(f"cluster health: {doc['status']}  (store {doc['store']})")
    for check in doc["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']:<16} {check['detail']}")
    return 0 if healthy else 1


def _cmd_blackbox(args) -> int:
    from ..telemetry import find_crash_dumps, load_crash_dump, render_blackbox

    store = _store_from(args)
    dumps = find_crash_dumps(store.root)
    if args.clear:
        for path in dumps:
            path.unlink(missing_ok=True)
        print(f"cleared {len(dumps)} crash dumps from {store.root}")
        return 0
    if not dumps:
        print(
            f"no crash dumps under {store.root}/telemetry/crash — "
            "nothing has died unexpectedly",
            file=sys.stderr,
        )
        return 1
    if args.list:
        for path in dumps:
            doc = load_crash_dump(path)
            print(
                f"{path.name}  reason={doc.get('reason', '?')}  "
                f"host={doc.get('host', '?')}  pid={doc.get('pid', '?')}  "
                f"events={len(doc.get('events') or [])}"
            )
        return 0
    if args.dump:
        matches = [p for p in dumps if p.name.startswith(args.dump)]
        if not matches:
            print(f"no crash dump matching {args.dump!r}", file=sys.stderr)
            return 1
        selected = matches
    else:
        selected = [dumps[-1]]  # newest
    first = True
    for path in selected:
        doc = load_crash_dump(path)
        if args.json:
            print(json.dumps(doc, indent=1, sort_keys=True))
            continue
        if not first:
            print("\n" + "=" * 72 + "\n")
        first = False
        print(f"[{path.name}]")
        print(render_blackbox(doc))
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
            raise SystemExit("cache gc needs --max-bytes and/or --older-than")
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
            "json = event log, chrome = event log + Chrome trace; "
            "default: off)",
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

    def backend_opts(p):
        p.add_argument(
            "--backend", default=None,
            help="execution backend: serial, process, cluster, or a "
            "registered plugin (default: serial, or process when "
            "--n-jobs > 1)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="cluster: auto-spawn this many local `repro worker` "
            "daemons for the run (default: use externally started "
            "workers)",
        )
        p.add_argument(
            "--log-level", default=None, choices=_LOG_LEVELS,
            help="broker logging threshold on stderr (timestamped via "
            "the `repro` logger; default: warnings only)",
        )

    run = sub.add_parser("run", help="run (or fetch) one job")
    common(run)
    backend_opts(run)
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
    backend_opts(sweep)
    sweep.add_argument("--n-jobs", type=int, default=1,
                       help="worker processes (1 = serial, no pool)")
    sweep.add_argument("--force", action="store_true")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    sweep.add_argument("--verbose", action="store_true",
                       help="per-layer progress lines "
                       "(jobs queued/leased/done)")
    sweep.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve broker /metrics + /healthz on this "
                       "port for the duration of the sweep (0: ephemeral)")
    sweep.set_defaults(func=_cmd_sweep)

    worker = sub.add_parser(
        "worker",
        help="serve the shared job queue as a long-lived worker daemon",
    )
    worker.add_argument(
        "--cache-dir", default=None,
        help="store location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    worker.add_argument(
        "--queue-dir", default=None,
        help="job queue location (default: <store>/queue)",
    )
    worker.add_argument("--worker-id", default=None,
                        help="identity on leases (default: host-pid-nonce)")
    worker.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between queue scans while idle")
    worker.add_argument("--heartbeat-interval", type=float, default=5.0,
                        help="seconds between lease heartbeats (keep well "
                        "below the broker's lease timeout)")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        help="exit after this many idle seconds "
                        "(default: serve until stopped)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after completing this many jobs")
    worker.add_argument("--die-after-claims", type=int, default=None,
                        help="fault injection for tests: SIGKILL self after "
                        "claiming the N-th job, before executing it")
    worker.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus /metrics, /metrics.json and "
                        "/healthz on this port (0: ephemeral)")
    worker.add_argument("--metrics-host", default="127.0.0.1",
                        help="bind address for --metrics-port "
                        "(default: 127.0.0.1; 0.0.0.0 for cluster scrapes)")
    worker.add_argument("--quiet", action="store_true",
                        help="shorthand for --log-level warning")
    worker.add_argument("--log-level", default=None, choices=_LOG_LEVELS,
                        help="stderr logging threshold (timestamped via "
                        "the `repro` logger; default: info)")
    telemetry_opt(worker)
    worker.set_defaults(func=_cmd_worker)

    plan = sub.add_parser(
        "plan",
        help="resolve a sweep's dependency plan without running it",
    )
    common(plan)
    grid(plan)
    backend_opts(plan)
    plan.add_argument("--n-jobs", type=int, default=1,
                      help="worker count assumed by the placement report")
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
        help="render the timing tree a telemetry-enabled run recorded",
    )
    profile.add_argument("key", help="store key (or unique prefix)")
    profile.add_argument("--cache-dir", default=None)
    profile.add_argument("--json", action="store_true",
                         help="print the raw run-profile document")
    profile.set_defaults(func=_cmd_profile)

    top = sub.add_parser(
        "top", help="live worker/lease/queue status of a cluster sweep"
    )
    top.add_argument("--cache-dir", default=None)
    top.add_argument("--queue-dir", default=None,
                     help="job queue location (default: <store>/queue)")
    top.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                     help="redraw every SECONDS until interrupted "
                     "(default: one snapshot)")
    top.add_argument("--lease-timeout", type=float, default=30.0,
                     help="staleness threshold for workers/leases "
                     "(default: 30s, the broker default)")
    top.add_argument("--json", action="store_true",
                     help="print one machine-readable snapshot "
                     "(incompatible with --watch)")
    top.set_defaults(func=_cmd_top)

    health = sub.add_parser(
        "health",
        help="evaluate cluster health thresholds; exit nonzero when "
        "unhealthy (CI/cron-friendly)",
    )
    health.add_argument("--cache-dir", default=None)
    health.add_argument("--queue-dir", default=None,
                        help="job queue location (default: <store>/queue)")
    health.add_argument("--lease-timeout", type=float, default=30.0,
                        help="heartbeat staleness threshold (default: 30s)")
    health.add_argument("--max-failures", type=int, default=3,
                        help="failure records at/above this count flag a "
                        "retry spike (default: 3)")
    health.add_argument("--json", action="store_true")
    health.set_defaults(func=_cmd_health)

    blackbox = sub.add_parser(
        "blackbox",
        help="render flight-recorder crash dumps a dying worker/broker "
        "left under <store>/telemetry/crash",
    )
    blackbox.add_argument("dump", nargs="?", default=None,
                          help="dump filename (or prefix); default: newest")
    blackbox.add_argument("--cache-dir", default=None)
    blackbox.add_argument("--list", action="store_true",
                          help="one line per dump instead of a rendering")
    blackbox.add_argument("--clear", action="store_true",
                          help="delete all crash dumps (after triage, so "
                          "`repro health` goes green again)")
    blackbox.add_argument("--json", action="store_true",
                          help="print the raw dump document(s)")
    blackbox.set_defaults(func=_cmd_blackbox)

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
    # Exported (not just stashed on args) so process-pool shards and
    # auto-spawned cluster workers inherit the telemetry mode.
    if getattr(args, "telemetry", None):
        os.environ[TELEMETRY_ENV] = args.telemetry
    if getattr(args, "log_level", None):
        _setup_logging(args.log_level)
    try:
        return args.func(args)
    except ClusterJobError as exc:
        # Jobs exhausted their retry cap: the per-job report is the
        # outcome, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Spec/registry validation (bad seed, schedule params, ...) is a
        # usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted (finished shards remain in the store)",
              file=sys.stderr)
        return 130
