"""The subcommands of the ``repro`` command line, apart from ``run``.

:mod:`repro.cli` dispatches: it builds the parser of the one subcommand
named on the command line and imports this module only when that is
not ``run``.  Each subcommand has an ``add_<name>`` builder, which
registers its parser, and a ``_cmd_<name>`` body; the option parents
and the system and corpus helpers they share live in :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.cli import (_activate_corpus, _build_configs, _build_specs,
                       _corpus_options, _legacy_fast, _load_target,
                       _shared_options, _single_config, _write_telemetry)
from repro.obs import Telemetry
from repro.workloads import all_workloads, workload_names


def _subset_names(args: argparse.Namespace,
                  corpus_names: List[str]) -> Optional[List[str]]:
    """Resolve ``--only``/``--corpus-only`` into a workload subset."""
    if getattr(args, "corpus_only", False):
        if not corpus_names:
            raise SystemExit("--corpus-only needs at least one --corpus "
                             "manifest")
        if args.only:
            raise SystemExit("--corpus-only and --only are exclusive")
        return corpus_names
    return _parse_workload_subset(args.only)


def _parse_workload_subset(only: Optional[str]) -> Optional[List[str]]:
    if not only:
        return None
    names = [n.strip() for n in only.split(",") if n.strip()]
    unknown = sorted(set(names) - set(workload_names()))
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    return names


def _artifact_cache(args: argparse.Namespace, **kwargs):
    """The artifact store ``--cache-dir``/``--no-cache`` select; without
    ``--cache-dir`` :class:`ArtifactCache` picks its default root."""
    from repro.system.artifacts import ArtifactCache

    if getattr(args, "no_cache", False):
        return None
    return ArtifactCache(args.cache_dir or None, **kwargs)


def _cache_root(args: argparse.Namespace) -> Optional[str]:
    """The artifact root ``repro serve``/``fleet`` hand to their workers:
    ``--cache-dir``, else the default root; None under ``--no-cache``."""
    from repro.system.artifacts import default_cache_dir

    if args.no_cache:
        return None
    return str(args.cache_dir or default_cache_dir())


def _service_client(url: Optional[str]):
    """A client for the service ``--url`` names (None without one);
    exits when the service cannot be reached."""
    if not url:
        return None
    from repro.serve.client import ServeError, connect

    try:
        return connect(url, timeout=600.0)
    except (ServeError, OSError) as exc:
        raise SystemExit(f"cannot reach service at {url}: {exc}")


def _objectives(args: argparse.Namespace) -> Tuple[str, ...]:
    """The comma-separated ``--objectives`` as a tuple of names."""
    return tuple(o.strip() for o in args.objectives.split(",")
                 if o.strip())


def add_workloads(sub) -> None:
    sub.add_parser("workloads",
                   help="list the benchmark suite").set_defaults(
        func=_cmd_workloads)


def _cmd_workloads(_: argparse.Namespace) -> int:
    print(f"{'name':14s} {'paper row':16s} {'class':9s} description")
    for workload in all_workloads():
        print(f"{workload.name:14s} {workload.paper_name:16s} "
              f"{workload.category:9s} {workload.description}")
    return 0


def add_inspect(sub) -> None:
    inspect_p = sub.add_parser(
        "inspect", help="render the hottest block's configuration",
        parents=[_shared_options("C1", "64", "off")])
    inspect_p.add_argument("target")
    inspect_p.set_defaults(func=_cmd_inspect)


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.cgra.render import render_configuration
    from repro.dim import BimodalPredictor, Translator
    from repro.sim import Simulator, run_program

    program = _load_target(args.target)
    config = _single_config(args)
    result = run_program(program, collect_trace=True)
    counts = result.trace.block_execution_counts()
    hottest_id = max(counts, key=lambda b: counts[b] *
                     len(result.trace.table.get(b)))
    block = result.trace.table.get(hottest_id)
    print(f"hottest block: 0x{block.start_pc:08x}, {len(block)} "
          f"instructions, executed {counts[hottest_id]:,} times\n")
    sim = Simulator(program)
    predictor = BimodalPredictor(512)
    if config.dim.speculation and block.is_conditional:
        for _ in range(3):
            predictor.update(block.branch_pc, True)
    translator = Translator(config.shape, config.dim, predictor,
                            sim.block_at)
    rendered = translator.translate(sim.block_at(block.start_pc))
    if rendered is None:
        print("block too short to translate (fewer than 4 instructions)")
        return 1
    print(render_configuration(rendered))
    return 0


def add_characterize(sub) -> None:
    char_p = sub.add_parser("characterize",
                            help="Figure 3-style block profile")
    char_p.add_argument("target")
    char_p.set_defaults(func=_cmd_characterize)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis import blocks_for_coverage, instructions_per_branch
    from repro.sim import run_program

    program = _load_target(args.target)
    result = run_program(program, collect_trace=True)
    trace = result.trace
    coverage = blocks_for_coverage(trace)
    print(f"instructions        : {result.stats.instructions:,}")
    print(f"distinct blocks     : {len(trace.table)}")
    print(f"instructions/branch : {instructions_per_branch(trace):.1f}")
    for fraction in sorted(coverage):
        print(f"blocks for {fraction:4.0%}     : {coverage[fraction]}")
    return 0


def add_report(sub) -> None:
    report_p = sub.add_parser(
        "report", help="full acceleration report for a target",
        parents=[_shared_options("C2", "64", "off")])
    report_p.add_argument("target")
    report_p.add_argument("--metrics", action="store_true",
                          help="append unified telemetry counters as "
                               "JSON")
    report_p.set_defaults(func=_cmd_report)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.system.report import build_report

    program = _load_target(args.target)
    config = _single_config(args)
    telemetry = Telemetry() if args.metrics else None
    report = build_report(program, config, telemetry=telemetry)
    print(report.render())
    if telemetry is not None:
        print("\n=== telemetry ===")
        print(telemetry.to_json())
    return 0


def add_suite(sub) -> None:
    suite_p = sub.add_parser(
        "suite", help="evaluate the whole Table 2 suite",
        parents=[_shared_options("C2", "64", "off", jobs=True,
                                 only=True),
                 _corpus_options()])
    suite_p.add_argument("--json", default=None,
                         help="also write results as JSON")
    suite_p.add_argument("--corpus-only", action="store_true",
                         help="evaluate only the --corpus kernels "
                              "(skip the 18 built-ins)")
    suite_p.set_defaults(func=_cmd_suite)
    _legacy_fast(suite_p)


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.workloads.suite import evaluate_suite, format_suite

    corpus_names = _activate_corpus(args.corpus)
    config = _single_config(args)
    names = _subset_names(args, corpus_names)
    result = evaluate_suite(config, names=names, jobs=args.jobs)
    print(format_suite(result))
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(result.to_json())
        print(f"\nwrote {args.json}")
    return 0


def add_sweep(sub) -> None:
    sweep_p = sub.add_parser(
        "sweep",
        help="evaluate a workloads x configurations matrix with the "
             "sweep engine",
        parents=[_shared_options(None, "16,64,256", "both", jobs=True,
                                 only=True),
                 _corpus_options()])
    sweep_p.add_argument("--corpus-only", action="store_true",
                         help="sweep only the --corpus kernels (skip "
                              "the 18 built-ins)")
    sweep_p.add_argument("--ideal", action="store_true",
                         help="also include the two Ideal columns")
    sweep_p.add_argument("--json", default=None,
                         help="write the deterministic matrix report")
    sweep_p.add_argument("--instrumentation", default=None,
                         help="write phase timings and cache counters")
    sweep_p.add_argument("--telemetry", default=None,
                         help="write the unified telemetry event "
                              "stream as JSONL")
    sweep_p.add_argument("--cache-dir", default=None,
                         help="artifact-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="disable the persistent artifact cache")
    sweep_p.set_defaults(func=_cmd_sweep)
    _legacy_fast(sweep_p)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.system.sweep import evaluate_matrix

    corpus_names = _activate_corpus(args.corpus)
    configs = _build_configs(args)
    names = _subset_names(args, corpus_names)
    cache = _artifact_cache(args)
    telemetry = Telemetry() if args.telemetry else None
    matrix = evaluate_matrix(configs, names=names, jobs=args.jobs,
                             cache=cache, telemetry=telemetry)

    print(f"{'system':16s} {'geomean speedup':>16s} "
          f"{'geomean energy':>15s}")
    for suite in matrix.suites:
        print(f"{suite.system:16s} {suite.geomean_speedup:>15.3f}x "
              f"{suite.geomean_energy_ratio:>14.3f}x")
    inst = matrix.instrumentation
    print(f"\n{inst.cells} cells ({inst.workloads} workloads x "
          f"{inst.systems} systems) in {inst.total_seconds:.2f}s "
          f"(trace {inst.trace_seconds:.2f}s, replay "
          f"{inst.replay_seconds:.2f}s)")
    print(f"traces     : {inst.traces_simulated} simulated, "
          f"{inst.traces_from_disk} from disk, "
          f"{inst.traces_in_memory} in memory")
    print(f"cells      : {inst.cells_replayed} replayed, "
          f"{inst.cells_from_disk} from disk artifacts")
    print(f"alloc memo : {inst.alloc_hit_rate:.1%} hit rate "
          f"({inst.alloc_hits:,} hits)")
    if cache is not None:
        print(f"artifacts  : {inst.artifact_hit_rate:.1%} hit rate "
              f"({inst.artifact_hits} hits, {inst.artifact_stores} "
              f"stores) @ {cache.root}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(matrix.results_json())
        print(f"\nwrote {args.json}")
    if args.instrumentation:
        with open(args.instrumentation, "w") as handle:
            handle.write(matrix.instrumentation_json())
        print(f"wrote {args.instrumentation}")
    _write_telemetry(telemetry, args.telemetry)
    return 0


def add_explore(sub) -> None:
    explore_p = sub.add_parser(
        "explore",
        help="multi-objective design-space exploration (Pareto "
             "frontier over speedup/area/energy)",
        parents=[_corpus_options()])
    explore_p.add_argument("--corpus-only", action="store_true",
                           help="explore over only the --corpus "
                                "kernels")
    explore_p.add_argument("--space", default=None,
                           help="declarative parameter-space JSON "
                                "(default: the built-in grid around "
                                "Table 1)")
    explore_p.add_argument("--strategy", default="grid",
                           help="search strategy: grid, random, "
                                "shalving, or hillclimb")
    explore_p.add_argument("--budget", type=int, default=None,
                           help="max candidate-evaluations at any "
                                "fidelity (default: exhaust the space)")
    explore_p.add_argument("--objectives", default="speedup,area",
                           help="comma-separated objectives "
                                "(speedup, area, energy); the first "
                                "is primary")
    explore_p.add_argument("--seed", type=int, default=0,
                           help="RNG seed: same seed + space + budget "
                                "=> byte-identical frontier")
    explore_p.add_argument("--frontier", default=None,
                           help="write the deterministic frontier "
                                "JSON report")
    explore_p.add_argument("--area-budget", type=int, default=None,
                           help="prune candidates above this many "
                                "total gates before evaluating")
    explore_p.add_argument("--only", default=None,
                           help="comma-separated workload subset")
    explore_p.add_argument("--jobs", type=int, default=1,
                           help="fan inline evaluation across N "
                                "processes (results byte-identical)")
    explore_p.add_argument("--url", default=None,
                           help="dispatch evaluation batches to a "
                                "running repro serve instance")
    explore_p.add_argument("--telemetry", default=None,
                           help="write the dse.* telemetry event "
                                "stream as JSONL")
    explore_p.add_argument("--cache-dir", default=None,
                           help="artifact-cache directory (default: "
                                "$REPRO_CACHE_DIR or ~/.cache/repro)")
    explore_p.add_argument("--no-cache", action="store_true",
                           help="disable the persistent artifact "
                                "cache")
    explore_p.set_defaults(func=_cmd_explore)
    _legacy_fast(explore_p)


def _cmd_explore(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from repro.dse import default_space, explore, load_space

    try:
        space = (load_space(args.space) if args.space
                 else default_space())
        if args.area_budget is not None:
            space = _dc.replace(space,
                                area_budget_gates=args.area_budget)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    corpus_names = _activate_corpus(getattr(args, "corpus", None))
    names = _subset_names(args, corpus_names)
    cache = _artifact_cache(args)
    client = _service_client(args.url)
    telemetry = Telemetry() if args.telemetry else None
    objectives = _objectives(args)
    try:
        result = explore(space=space, strategy=args.strategy,
                         objectives=objectives, workloads=names,
                         budget=args.budget, seed=args.seed,
                         jobs=args.jobs, cache=cache,
                         client=client, telemetry=telemetry)
    except ValueError as exc:
        raise SystemExit(str(exc))

    print(f"{result.strategy} search: {result.evaluations} evaluations "
          f"({result.cells} cells), seed {result.seed}, "
          f"budget {result.budget if result.budget is not None else '-'}")
    print(f"frontier   : {len(result.points)} points "
          f"({result.dominated} dominated), "
          f"hypervolume {result.hypervolume:.4g}\n")
    print(f"{'system':34s} {'gates':>11s} {'speedup':>8s} "
          f"{'energy':>7s}")
    for point in result.points:
        print(f"{point.system:34s} {point.gates:>11,d} "
              f"{point.geomean_speedup:>7.2f}x "
              f"{point.geomean_energy_ratio:>6.2f}x")
    if args.frontier:
        with open(args.frontier, "w") as handle:
            handle.write(result.to_json() + "\n")
        print(f"\nwrote {args.frontier}")
    _write_telemetry(telemetry, args.telemetry)
    return 0


def add_mpsoc(sub) -> None:
    mpsoc_p = sub.add_parser(
        "mpsoc",
        help="explore MPSoC core/array allocations for a traffic mix",
        parents=[_shared_options("C1,C2,C3", "64", "on", jobs=True),
                 _corpus_options()])
    mpsoc_p.add_argument("--preset", default=None,
                         choices=("sys-s", "sys-m", "sys-l"),
                         help="area-budget preset derived from the "
                              "Table 3a unit costs")
    mpsoc_p.add_argument("--area-budget", type=int, default=None,
                         help="explicit area budget in gates "
                              "(instead of --preset)")
    mpsoc_p.add_argument("--mix", default=None,
                         help="weighted traffic mix as name:weight,"
                              "... (default: the whole suite, equal "
                              "weights)")
    mpsoc_p.add_argument("--cores", default=None,
                         help="comma-separated candidate core counts "
                              "(default 1,2,4)")
    mpsoc_p.add_argument("--max-arrays", type=int, default=2,
                         help="array slots per allocation")
    mpsoc_p.add_argument("--serial-fraction", type=float, default=0.1,
                         help="Amdahl serial fraction of each "
                              "workload's phase model")
    mpsoc_p.add_argument("--strategy", default="grid",
                         help="search strategy: grid, random, "
                              "shalving, or hillclimb")
    mpsoc_p.add_argument("--budget", type=int, default=None,
                         help="max allocation evaluations (default: "
                              "exhaust the feasible space)")
    mpsoc_p.add_argument("--objectives", default="speedup,area",
                         help="comma-separated objectives (speedup, "
                              "area, energy)")
    mpsoc_p.add_argument("--seed", type=int, default=0,
                         help="RNG seed: same seed + scenario => "
                              "byte-identical frontier")
    mpsoc_p.add_argument("--frontier", default=None,
                         help="write the deterministic frontier JSON "
                              "report")
    mpsoc_p.add_argument("--url", default=None,
                         help="dispatch the catalog matrix to a "
                              "running repro serve / fleet "
                              "coordinator")
    mpsoc_p.add_argument("--telemetry", default=None,
                         help="write the mpsoc.*/dse.* telemetry "
                              "event stream as JSONL")
    mpsoc_p.add_argument("--cache-dir", default=None,
                         help="artifact-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    mpsoc_p.add_argument("--no-cache", action="store_true",
                         help="disable the persistent artifact cache")
    mpsoc_p.set_defaults(func=_cmd_mpsoc)
    _legacy_fast(mpsoc_p)


def _mpsoc_catalog(args: argparse.Namespace):
    """The accelerator catalog from the shared system options.

    Each selected :class:`SystemSpec` becomes one catalog entry; the
    entry is named by its array alone when that is unambiguous,
    otherwise by the full canonical system name.
    """
    specs = _build_specs(args)
    arrays = [spec.array for spec in specs]
    return tuple(
        (spec.array if arrays.count(spec.array) == 1 else spec.name,
         spec)
        for spec in specs)


def _cmd_mpsoc(args: argparse.Namespace) -> int:
    import json

    from repro.mpsoc import (InfeasibleBudgetError, explore_mix,
                             mpsoc_spec)

    _activate_corpus(getattr(args, "corpus", None))
    spec_kwargs = {"catalog": _mpsoc_catalog(args),
                   "max_arrays": args.max_arrays,
                   "serial_fraction": args.serial_fraction}
    if args.cores:
        try:
            spec_kwargs["core_counts"] = tuple(
                int(c) for c in args.cores.split(",") if c.strip())
        except ValueError:
            raise SystemExit(f"--cores must be comma-separated "
                             f"integers, got {args.cores!r}")
    cache = _artifact_cache(args)
    client = _service_client(args.url)
    telemetry = Telemetry() if args.telemetry else None
    objectives = _objectives(args)
    try:
        spec = mpsoc_spec(preset=args.preset,
                          area_budget_gates=args.area_budget,
                          mix=args.mix, **spec_kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        result = explore_mix(spec, strategy=args.strategy,
                             objectives=objectives, budget=args.budget,
                             seed=args.seed, jobs=args.jobs,
                             cache=cache, client=client,
                             telemetry=telemetry)
    except InfeasibleBudgetError as exc:
        raise SystemExit(json.dumps(exc.as_dict(), sort_keys=True))
    except ValueError as exc:
        raise SystemExit(str(exc))

    frontier = result.frontier
    stats = result.stats
    label = spec.name or f"{spec.area_budget_gates} gates"
    print(f"scenario   : {label} "
          f"({spec.area_budget_gates:,} gates), mix "
          + ",".join(f"{n}:{w:g}" for n, w in spec.mix))
    print(f"allocations: {stats.feasible_allocations} feasible "
          f"({stats.pruned_allocations} pruned by budget/pairing), "
          f"{stats.allocations_scored} scored via "
          f"{stats.matrix_cells} matrix cells")
    print(f"frontier   : {len(frontier.points)} points "
          f"({frontier.dominated} dominated), "
          f"hypervolume {frontier.hypervolume:.4g}\n")
    print(f"{'allocation':20s} {'gates':>11s} {'speedup':>8s} "
          f"{'energy':>7s}")
    for point in frontier.points:
        print(f"{point.system:20s} {point.gates:>11,d} "
              f"{point.geomean_speedup:>7.2f}x "
              f"{point.geomean_energy_ratio:>6.2f}x")
    tables = result.dispatch_tables()
    best = frontier.points[-1].system if frontier.points else None
    if best is not None and tables.get(best):
        print(f"\ndispatch for {best}:")
        for row in tables[best]:
            print(f"  {row.workload:14s} -> {row.tile:6s} "
                  f"({row.speedup:.2f}x, weight {row.weight:g})")
    if args.frontier:
        with open(args.frontier, "w") as handle:
            handle.write(frontier.to_json() + "\n")
        print(f"\nwrote {args.frontier}")
    _write_telemetry(telemetry, args.telemetry)
    return 0


def add_serve(sub) -> None:
    serve_p = sub.add_parser(
        "serve", help="run the persistent evaluation service",
        parents=[_corpus_options()])
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8350)
    serve_p.add_argument("--workers", type=int, default=0,
                         help="warm process-pool workers (0 = run "
                              "batches in-process)")
    serve_p.add_argument("--capacity", type=int, default=256,
                         help="bounded queue size (submissions beyond "
                              "it are rejected)")
    serve_p.add_argument("--batch-window", type=float, default=0.02,
                         help="seconds to wait for coalescable jobs "
                              "after the first claim")
    serve_p.add_argument("--cache-dir", default=None,
                         help="artifact-cache directory pinned into "
                              "every worker (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="disable the persistent artifact cache")
    serve_p.add_argument("--scoped-cache", action="store_true",
                         help="store artifacts under per-fingerprint "
                              "subdirectories (fleet workers sharing "
                              "one cache dir)")
    serve_p.set_defaults(func=_cmd_serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import serve_forever

    _activate_corpus(args.corpus)
    return serve_forever(host=args.host, port=args.port,
                         workers=args.workers, cache_root=_cache_root(args),
                         capacity=args.capacity,
                         batch_window=args.batch_window,
                         scoped_cache=args.scoped_cache)


def add_fleet(sub) -> None:
    fleet_p = sub.add_parser(
        "fleet",
        help="run the distributed evaluation fleet coordinator",
        parents=[_corpus_options()])
    fleet_p.add_argument("--host", default="127.0.0.1")
    fleet_p.add_argument("--port", type=int, default=8360)
    fleet_p.add_argument("--workers", type=int, default=2,
                         help="local worker processes to spawn (0 = "
                              "only --worker-url servers)")
    fleet_p.add_argument("--worker-url", action="append", default=None,
                         help="register an already-running repro serve "
                              "(repeatable)")
    fleet_p.add_argument("--max-inflight", type=int, default=1024,
                         help="fleet-wide unfinished-job cap; beyond "
                              "it submissions are shed with "
                              "fleet_saturated")
    fleet_p.add_argument("--capacity", type=int, default=1024,
                         help="per-worker bounded queue size")
    fleet_p.add_argument("--worker-jobs", type=int, default=0,
                         help="warm process-pool workers inside each "
                              "spawned worker")
    fleet_p.add_argument("--heartbeat-interval", type=float,
                         default=0.25,
                         help="seconds between worker health polls")
    fleet_p.add_argument("--heartbeat-failures", type=int, default=3,
                         help="consecutive failed polls before a "
                              "worker is declared dead")
    fleet_p.add_argument("--cache-dir", default=None,
                         help="shared artifact store for all spawned "
                              "workers (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro)")
    fleet_p.add_argument("--no-cache", action="store_true",
                         help="disable the shared artifact store")
    fleet_p.set_defaults(func=_cmd_fleet)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.local import fleet_forever

    _activate_corpus(args.corpus)
    return fleet_forever(host=args.host, port=args.port,
                         workers=args.workers,
                         worker_urls=args.worker_url,
                         cache_root=_cache_root(args),
                         capacity=args.capacity,
                         worker_jobs=args.worker_jobs,
                         max_inflight=args.max_inflight,
                         heartbeat_interval=args.heartbeat_interval,
                         heartbeat_failures=args.heartbeat_failures)


def add_cache(sub) -> None:
    cache_p = sub.add_parser(
        "cache", help="inspect or prune the shared artifact store")
    cache_p.add_argument("action", choices=("stats", "prune"))
    cache_p.add_argument("--cache-dir", default=None,
                         help="artifact-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_p.add_argument("--max-bytes", type=int, default=None,
                         help="size cap for prune (default: "
                              "$REPRO_CACHE_MAX_BYTES)")
    cache_p.add_argument("--grace", type=float, default=60.0,
                         help="never evict entries read within this "
                              "many seconds")
    cache_p.set_defaults(func=_cmd_cache)


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _artifact_cache(args, max_bytes=args.max_bytes)
    stats = cache.stats()
    if args.action == "stats":
        cap = stats["max_bytes"]
        print(f"root    : {stats['root']}")
        print(f"entries : {stats['entries']:,}")
        print(f"size    : {stats['total_bytes']:,} bytes"
              + (f" (cap {cap:,})" if cap else " (no cap)"))
        if stats["scopes"]:
            print(f"scopes  : {len(stats['scopes'])} "
                  f"({', '.join(stats['scopes'][:8])}"
                  f"{', ...' if len(stats['scopes']) > 8 else ''})")
        if stats["entries"]:
            print(f"ages    : newest {stats['newest_age_seconds']:.0f}s, "
                  f"oldest {stats['oldest_age_seconds']:.0f}s")
        return 0
    try:
        report = cache.prune(max_bytes=args.max_bytes,
                             grace_seconds=args.grace)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"evicted {report['evicted']} entries "
          f"({report['evicted_bytes']:,} bytes); "
          f"{report['remaining_bytes']:,} bytes remain")
    return 0


def add_submit(sub) -> None:
    submit_p = sub.add_parser(
        "submit", help="submit a job to a running service",
        parents=[_shared_options("C2", "64", "off", only=True),
                 _corpus_options()])
    submit_p.add_argument("kind", choices=("run", "evaluate", "sweep"))
    submit_p.add_argument("target", nargs="?", default=None,
                          help="run jobs: workload name or source path")
    submit_p.add_argument("--url", default=None,
                          help="service URL (default: "
                               "http://127.0.0.1:8350, or :8360 with "
                               "--fleet)")
    submit_p.add_argument("--fleet", action="store_true",
                          help="target a fleet coordinator through the "
                               "streaming fleet client")
    submit_p.add_argument("--priority", type=int, default=0,
                          help="higher runs first (FIFO within a "
                               "priority)")
    submit_p.add_argument("--timeout", type=float, default=None,
                          help="per-job deadline in seconds")
    submit_p.add_argument("--no-wait", action="store_true",
                          help="print the job id and return instead of "
                               "polling for the result")
    submit_p.add_argument("--json", default=None,
                          help="write the result body (suite/matrix "
                               "JSON) to a file")
    submit_p.set_defaults(func=_cmd_submit)
    _legacy_fast(submit_p)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    _activate_corpus(args.corpus)
    url = args.url
    if args.fleet:
        from repro.fleet.client import FleetClient

        if url is None:
            url = "http://127.0.0.1:8360"
        client: ServeClient = FleetClient(url)
    else:
        client = ServeClient(url or "http://127.0.0.1:8350")
    configs = [spec.to_dict() for spec in _build_specs(args)]
    names = _parse_workload_subset(args.only)
    kwargs = dict(priority=args.priority, timeout=args.timeout)
    try:
        if args.kind == "run":
            if not args.target:
                raise SystemExit("submit run needs a target")
            if len(configs) != 1:
                raise SystemExit("submit run takes exactly one system")
            job = client.submit("run", target=args.target,
                                configs=configs, **kwargs)
        elif args.kind == "evaluate":
            if len(configs) != 1:
                raise SystemExit("submit evaluate takes exactly one "
                                 "system; use 'submit sweep' for a "
                                 "matrix")
            job = client.submit("evaluate", configs=configs,
                                names=names, **kwargs)
        else:
            job = client.submit("sweep", configs=configs, names=names,
                                **kwargs)
        print(f"submitted {job['job_id']} "
              f"(state={job['state']}, "
              f"fingerprint={job['fingerprint']})")
        if args.no_wait:
            return 0
        payload = client.wait(job["job_id"])
    except ServeError as exc:
        raise SystemExit(f"service error [{exc.code}]: {exc}")
    result = payload["result"]
    if result["kind"] == "run":
        print(f"{result['target']} on {result['system']}: "
              f"{result['speedup']:.2f}x speedup, "
              f"{result['energy_ratio']:.2f}x less energy")
    elif result["kind"] == "evaluate":
        print(f"{result['system']}: geomean speedup "
              f"{result['geomean_speedup']:.3f}x")
    else:
        print(f"sweep over {len(result['systems'])} systems done")
    body = result.get("suite_json") or result.get("matrix_json")
    if args.json and body:
        with open(args.json, "w") as handle:
            handle.write(body)
        print(f"wrote {args.json}")
    return 0


def add_jobs(sub) -> None:
    jobs_p = sub.add_parser(
        "jobs", help="list the jobs of a running service")
    jobs_p.add_argument("--url", default="http://127.0.0.1:8350")
    jobs_p.set_defaults(func=_cmd_jobs)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        jobs = client.jobs()
        health = client.healthz()
    except ServeError as exc:
        raise SystemExit(f"service error [{exc.code}]: {exc}")
    print(f"{'job':10s} {'kind':9s} {'state':10s} {'prio':>4s} "
          f"{'att':>3s} {'batch':>5s} error")
    for job in jobs:
        error = (job.get("error") or {}).get("code", "")
        print(f"{job['job_id']:10s} {job['kind']:9s} "
              f"{job['state']:10s} {job['priority']:>4d} "
              f"{job['attempts']:>3d} {job['batch_width']:>5d} "
              f"{error}")
    print(f"\nqueue depth {health['queue_depth']}, "
          f"{health['active_jobs']} active, "
          f"workers={health['workers']}, paused={health['paused']}")
    return 0


def add_corpus(sub) -> None:
    corpus_p = sub.add_parser(
        "corpus",
        help="generate or inspect seeded synthetic workload corpora")
    corpus_sub = corpus_p.add_subparsers(dest="action", required=True)

    gen_p = corpus_sub.add_parser(
        "generate",
        help="generate a seeded, self-checking kernel corpus")
    gen_p.add_argument("--seed", type=int, default=0,
                       help="corpus seed: same seed + knobs => "
                            "byte-identical manifest")
    gen_p.add_argument("--count", type=int, default=100,
                       help="number of kernels to generate")
    gen_p.add_argument("--profile", default="mixed",
                       help="knob profile: mixed, dataflow, control, "
                            "memory, loopy, or divergent")
    gen_p.add_argument("--out", default=None,
                       help="manifest path (default corpus_<seed>.json)")
    gen_p.add_argument("--names", action="store_true",
                       help="print kernel names to stdout, one per "
                            "line (summary goes to stderr) for piping "
                            "into --only")
    gen_p.add_argument("--telemetry", default=None,
                       help="write the corpus.* telemetry event "
                            "stream as JSONL")
    gen_p.set_defaults(func=_cmd_corpus_generate)

    list_p = corpus_sub.add_parser(
        "list", help="tabulate a corpus manifest's kernels")
    list_p.add_argument("manifest")
    list_p.set_defaults(func=_cmd_corpus_list)

    cinspect_p = corpus_sub.add_parser(
        "inspect",
        help="show one kernel's knobs, fingerprints and source")
    cinspect_p.add_argument("manifest")
    cinspect_p.add_argument("kernel")
    cinspect_p.add_argument("--source", action="store_true",
                            help="also print the regenerated assembly")
    cinspect_p.set_defaults(func=_cmd_corpus_inspect)


def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusKnobs, GenerationError, generate_corpus

    try:
        knobs = CorpusKnobs.named(args.profile)
    except ValueError as exc:
        raise SystemExit(str(exc))
    telemetry = Telemetry() if args.telemetry else None
    try:
        corpus = generate_corpus(args.seed, args.count, knobs=knobs,
                                 telemetry=telemetry)
    except GenerationError as exc:
        raise SystemExit(f"generation failed: {exc}")
    out = args.out or f"corpus_{args.seed}.json"
    corpus.write(out, telemetry=telemetry)
    # with --names the kernel names go to stdout (pipeable into
    # --only), so the summary moves to stderr.
    stream = sys.stderr if args.names else sys.stdout
    categories = {}
    instructions = 0
    for kernel in corpus.kernels:
        categories[kernel.category] = categories.get(kernel.category,
                                                     0) + 1
        instructions += kernel.instructions
    shape = ", ".join(f"{count} {name}" for name, count
                      in sorted(categories.items()))
    print(f"wrote {out}: {corpus.count} kernels (seed {args.seed}, "
          f"profile {knobs.profile})", file=stream)
    print(f"mix        : {shape}", file=stream)
    print(f"dynamic    : {instructions:,} self-checked instructions",
          file=stream)
    if args.names:
        for name in corpus.names():
            print(name)
    _write_telemetry(telemetry, args.telemetry, counts=False, file=stream)
    return 0


def _cmd_corpus_list(args: argparse.Namespace) -> int:
    from repro.corpus import ManifestError, load_manifest

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ManifestError) as exc:
        raise SystemExit(str(exc))
    print(f"corpus seed {manifest['seed']}, "
          f"profile {manifest.get('profile', 'mixed')}, "
          f"{manifest['count']} kernels")
    print(f"{'name':12s} {'class':9s} {'blk':>3s} {'ilp':>3s} "
          f"{'dia':>3s} {'nest':>4s} {'mem':>5s} {'instrs':>8s} "
          f"checksum")
    for entry in manifest["kernels"]:
        knobs = entry["knobs"]
        trips = "x".join(str(t) for t in knobs["trips"])
        print(f"{entry['name']:12s} {entry['category']:9s} "
              f"{knobs['block_size']:>3d} {knobs['ilp']:>3d} "
              f"{knobs['diamonds']:>3d} {trips:>4s} "
              f"{knobs['mem_intensity']:>5.2f} "
              f"{entry['instructions']:>8,d} {entry['checksum']}")
    return 0


def _cmd_corpus_inspect(args: argparse.Namespace) -> int:
    import json as _json

    from repro.corpus import ManifestError, load_manifest, \
        rebuild_kernel_source

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ManifestError) as exc:
        raise SystemExit(str(exc))
    entry = next((k for k in manifest["kernels"]
                  if k["name"] == args.kernel), None)
    if entry is None:
        known = ", ".join(k["name"] for k in manifest["kernels"][:10])
        raise SystemExit(f"kernel {args.kernel!r} not in manifest "
                         f"(first kernels: {known}, ...)")
    try:
        source = rebuild_kernel_source(int(manifest["seed"]), entry)
    except ManifestError as exc:
        raise SystemExit(str(exc))
    print(_json.dumps(entry, indent=2, sort_keys=True))
    if args.source:
        print("\n" + source, end="")
    return 0


def add_traffic(sub) -> None:
    traffic_p = sub.add_parser(
        "traffic",
        help="replay a seeded traffic mix against a running "
             "service/fleet",
        parents=[_shared_options("C2", "64", "on", only=True),
                 _corpus_options()])
    traffic_p.add_argument("--url", default="http://127.0.0.1:8350",
                           help="serve or fleet-coordinator URL")
    traffic_p.add_argument("--seed", type=int, default=0,
                           help="schedule seed: same seed + spec => "
                                "identical request sequence")
    traffic_p.add_argument("--requests", type=int, default=200,
                           help="requests to schedule (ignored with "
                                "--duration)")
    traffic_p.add_argument("--duration", type=float, default=None,
                           help="schedule this many seconds of "
                                "arrivals instead of a fixed count")
    traffic_p.add_argument("--rate", type=float, default=50.0,
                           help="mean arrival rate, requests/second")
    traffic_p.add_argument("--arrival", default="poisson",
                           choices=("poisson", "burst", "uniform"),
                           help="open-loop arrival process")
    traffic_p.add_argument("--burst", type=int, default=8,
                           help="requests per burst (--arrival burst)")
    traffic_p.add_argument("--zipf", type=float, default=1.1,
                           help="Zipf popularity skew (0 = uniform)")
    traffic_p.add_argument("--hot-rotate", type=float, default=0.0,
                           help="seconds between hot-set rotations "
                                "(0 = stable popularity)")
    traffic_p.add_argument("--priorities", default="0",
                           help="comma-separated priority mix, drawn "
                                "uniformly per request")
    traffic_p.add_argument("--deadline-fraction", type=float,
                           default=0.0,
                           help="fraction of requests carrying a "
                                "server-side deadline")
    traffic_p.add_argument("--deadline", type=float, default=5.0,
                           help="the deadline (seconds) for that "
                                "fraction")
    traffic_p.add_argument("--poll", type=float, default=0.05,
                           help="seconds between completion polls")
    traffic_p.add_argument("--drain-timeout", type=float, default=300.0,
                           help="abort the replay after this many "
                                "seconds")
    traffic_p.add_argument("--dry-run", action="store_true",
                           help="print the deterministic schedule "
                                "without contacting a server")
    traffic_p.add_argument("--json", default=None,
                           help="write the full replay report as JSON")
    traffic_p.add_argument("--telemetry", default=None,
                           help="write the traffic.* telemetry event "
                                "stream as JSONL")
    traffic_p.set_defaults(func=_cmd_traffic)


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.traffic import TrafficSpec, build_schedule, popularity, \
        replay_traffic

    corpus_names = _activate_corpus(args.corpus)
    names = _parse_workload_subset(args.only) or corpus_names \
        or workload_names()
    specs = _build_specs(args)
    if len(specs) != 1:
        raise SystemExit("traffic drives exactly one system "
                         "configuration")
    try:
        priorities = tuple(int(p) for p in args.priorities.split(",")
                           if p.strip())
    except ValueError:
        raise SystemExit(f"--priorities must be comma-separated "
                         f"integers, got {args.priorities!r}")
    try:
        spec = TrafficSpec(
            seed=args.seed, requests=args.requests,
            duration=args.duration, rate=args.rate,
            arrival=args.arrival, burst=args.burst, zipf_s=args.zipf,
            hot_rotate=args.hot_rotate, priorities=priorities or (0,),
            deadline_fraction=args.deadline_fraction,
            deadline=args.deadline)
        if args.dry_run:
            schedule = build_schedule(spec, names)
            print(f"{'#':>5s} {'at(s)':>8s} {'epoch':>5s} {'prio':>4s} "
                  f"{'deadline':>8s} name")
            for request in schedule:
                deadline = (f"{request.deadline:.1f}"
                            if request.deadline is not None else "-")
                print(f"{request.index:>5d} {request.at:>8.3f} "
                      f"{request.epoch:>5d} {request.priority:>4d} "
                      f"{deadline:>8s} {request.name}")
            print("\npopularity (requests per workload):")
            for name, count in popularity(schedule).items():
                print(f"  {name:14s} {count}")
            return 0
    except ValueError as exc:
        raise SystemExit(str(exc))

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    telemetry = Telemetry()
    try:
        report = replay_traffic(client, spec, names,
                                config=specs[0].to_dict(),
                                telemetry=telemetry, poll=args.poll,
                                drain_timeout=args.drain_timeout)
    except (ServeError, OSError) as exc:
        raise SystemExit(f"cannot replay against {args.url}: {exc}")
    summary = report.summary()
    print(f"planned    : {summary['planned']} requests over "
          f"{summary['unique_workloads']} workloads "
          f"(zipf s={spec.zipf_s}, {spec.arrival} arrivals at "
          f"{spec.rate}/s)")
    print(f"outcome    : {summary['completed']} completed, "
          f"{summary['failed']} failed, {summary['shed']} shed, "
          f"{summary['timed_out']} timed out in "
          f"{summary['run_seconds']:.2f}s "
          f"({summary['throughput_rps']:.1f} done/s)")
    print(f"latency    : p50 {summary['latency_p50_ms']:.1f}ms, "
          f"p90 {summary['latency_p90_ms']:.1f}ms, "
          f"p99 {summary['latency_p99_ms']:.1f}ms "
          f"(max outstanding {summary['max_outstanding']})")
    print(f"coalescing : {summary['batched_jobs']} jobs in "
          f"{summary['batches']} batches "
          f"(hit rate {summary['coalescing_rate']:.0%}), "
          f"shed rate {summary['shed_rate']:.0%}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"\nwrote {args.json}")
    _write_telemetry(telemetry, args.telemetry, counts=False)
    return 0


def add_disasm(sub) -> None:
    disasm_p = sub.add_parser("disasm", help="disassemble a target")
    disasm_p.add_argument("target")
    disasm_p.set_defaults(func=_cmd_disasm)


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.asm.disassembler import disassemble_program

    program = _load_target(args.target)
    for line in disassemble_program(program):
        print(line)
    return 0
