"""Command-line interface.

Usage (installed as ``python -m repro.cli``):

- ``run <file.s|file.c|workload> [--array C3] [--slots 64] [--spec]
  [--telemetry t.jsonl]`` — run a program or named workload on the
  plain MIPS and on the coupled system, printing outputs, cycles,
  speedup and DIM statistics; ``--telemetry`` writes the runs' event
  stream and counters as JSONL.
- ``workloads`` — list the 18 MiBench-analog workloads.
- ``inspect <file.s|workload> [--array C1] [--spec]`` — translate the
  hottest basic block and render the resulting array configuration.
- ``characterize <workload>`` — Figure 3-style block profile.
- ``report <target> [--metrics]`` — full acceleration report:
  characterisation, speedup/energy, DIM statistics and the hottest
  configurations; ``--metrics`` appends the unified telemetry counters
  as JSON.
- ``suite [--array C2] [--slots 64] [--spec] [--json out.json]
  [--jobs N] [--only a,b]`` — evaluate the whole Table 2 suite
  (or a subset) against one system, optionally fanning workloads across
  ``N`` processes; JSON output is byte-identical for any ``--jobs``.
- ``sweep [--arrays C1,C2] [--slots 16,64] [--spec both] [--ideal]
  [--only a,b] [--jobs N] [--json out.json] [--instrumentation i.json]
  [--telemetry t.jsonl] [--cache-dir DIR] [--no-cache]`` — evaluate a
  full workloads x configurations matrix through the trace-once /
  replay-many sweep engine with persistent artifact caching; defaults
  to the paper's Table 2 matrix.  Result JSON is byte-identical to
  per-configuration ``suite`` runs, serial or parallel, cold or warm
  cache — and identical with or without ``--telemetry``.
- ``explore [--space spec.json] [--strategy grid|random|shalving|
  hillclimb] [--budget N] [--objectives speedup,area,energy]
  [--seed N] [--frontier out.json] [--area-budget GATES] [--only a,b]
  [--jobs N] [--url U] [--telemetry t.jsonl]
  [--cache-dir DIR] [--no-cache]`` — multi-objective design-space
  exploration (:mod:`repro.dse`): search the joint (array shape, cache
  slots, speculation, DIM policy) space with a seeded, budget-bounded
  strategy and print/export the Pareto frontier.  ``--url`` dispatches
  evaluation batches to a running ``repro serve``; the frontier JSON
  is byte-identical across serial, ``--jobs N`` and dispatched runs.
- ``mpsoc [--preset sys-s|sys-m|sys-l | --area-budget GATES]
  [--mix name:w,...] [--cores 1,2,4] [--max-arrays N]
  [--serial-fraction F] [--strategy S] [--budget N] [--seed N]
  [--objectives ...] [--frontier out.json] [--jobs N]
  [--url U] [--telemetry t.jsonl] [--cache-dir DIR] [--no-cache]``
  — explore heterogeneous MPSoC allocations (:mod:`repro.mpsoc`):
  split an area budget across plain MIPS cores and catalog arrays
  (the shared ``--array/--slots/--spec`` options pick the catalog,
  default C1,C2,C3 at 64 slots with speculation), dispatch each
  workload of the weighted traffic mix to its best-fitting tile, and
  print/export the Pareto frontier over mix-level speedup/area/energy.
  A budget below the cheapest allocation exits with a structured
  machine-readable error; the frontier JSON is byte-identical inline,
  with ``--jobs`` and when ``--url`` dispatches the catalog matrix.
- ``serve [--host H] [--port P] [--workers N] [--cache-dir DIR]
  [--no-cache] [--capacity N] [--scoped-cache]`` — run the persistent
  evaluation service (:mod:`repro.serve`): an HTTP job queue whose
  scheduler coalesces compatible jobs into one matrix replay on warm
  workers.  ``--scoped-cache`` puts each workload fingerprint's
  artifacts in its own subdirectory, which is how fleet workers share
  one ``REPRO_CACHE_DIR`` without contention.
- ``fleet [--host H] [--port P] [--workers N] [--worker-url U ...]
  [--max-inflight N] [--capacity N] [--cache-dir DIR] [--no-cache]``
  — run the distributed evaluation fleet (:mod:`repro.fleet`): a
  coordinator that shards jobs across worker servers by workload
  fingerprint (consistent hashing), monitors worker health, re-
  dispatches jobs from dead workers and sheds load beyond
  ``--max-inflight``.  ``--workers N`` spawns N local worker processes
  sharing one fingerprint-scoped artifact store; ``--worker-url``
  registers already-running servers instead (or additionally).
- ``submit {run,evaluate,sweep} [target] [--url U] [--fleet]
  [--priority N] [--timeout S] [--no-wait] [--json out.json]`` plus
  the shared system options — submit one job to a running service and
  (by default) wait for and print its result.  ``--fleet`` targets a
  coordinator (default port 8360) through the streaming fleet client.
- ``jobs [--url U]`` — list every job the service knows, with states.
- ``cache {stats,prune} [--cache-dir DIR] [--max-bytes N]`` — inspect
  or LRU-prune the shared artifact store.
- ``corpus generate [--seed N] [--count N] [--profile P] [--out M]
  [--names] [--telemetry t.jsonl]`` / ``corpus list <manifest>`` /
  ``corpus inspect <manifest> <kernel> [--source]`` — the seeded
  synthetic kernel corpus (:mod:`repro.corpus`): generate hundreds of
  self-checking assembly kernels with controlled block size, ILP,
  branch bias/predictability, loop nesting and memory intensity, into
  a fingerprinted manifest.  Every workload-taking command accepts
  ``--corpus MANIFEST`` (repeatable) to register the kernels — the
  manifests are exported via ``REPRO_CORPUS`` so sweep ``--jobs``
  pools, serve workers and fleet worker processes resolve the same
  names; ``--corpus-only`` (suite/sweep/explore) restricts the run to
  corpus kernels.
- ``traffic [--url U] [--seed N] [--requests N | --duration S]
  [--rate R] [--arrival poisson|burst|uniform] [--zipf S]
  [--hot-rotate S] [--priorities 0,5] [--deadline-fraction F]
  [--corpus M] [--only a,b] [--dry-run] [--json out.json]
  [--telemetry t.jsonl]`` — replay a seeded, Zipf-skewed open-loop
  traffic mix (:mod:`repro.traffic`) against a running serve or fleet
  endpoint, reporting latency percentiles, batch-coalescing hit rate
  and shed rate from the service's real telemetry.
- ``disasm <file.s|file.c|workload>`` — disassemble a target's text
  segment.

Every subcommand that takes a system shares one option parent
(``--array/--slots/--spec`` plus ``--jobs/--only`` where they apply)
and builds its configurations through the single canonical
:class:`repro.system.config.SystemSpec` path.  ``--array`` and
``--arrays`` are the same option; both accept comma-separated lists,
as does ``--slots``.  Commands that run exactly one system reject
selections that expand to several.

Every command simulates on the one production simulator, the block
compiler of :mod:`repro.sim.fastpath`; the per-instruction interpreter
is the reference the tests compare it against.  The commands that once
took ``--fast`` to pick the compiler (run, suite, sweep, explore,
mpsoc, submit) still accept it, hidden from ``--help``, and ignore it.

This module is the dispatcher: :func:`main` builds the parser of the
one subcommand named on the command line, and the full parser only
for ``--help``, a missing command or an unknown one.  ``run`` and the
option parents and helpers the subcommands share are defined here; the
other subcommands live in :mod:`repro.commands`, which only they
import.  ``import repro.cli`` therefore loads neither the workloads nor
the system configurations.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.asm.program import Program
    from repro.obs import Telemetry
    from repro.system.config import SystemConfig, SystemSpec

_SPEC_VALUES = {"off": (False,), "on": (True,), "both": (False, True)}

#: every subcommand, in ``--help`` order.  ``run`` is built here, every
#: other one by ``add_<name>`` in :mod:`repro.commands`.
COMMANDS = ("run", "workloads", "inspect", "characterize", "report",
            "suite", "sweep", "explore", "mpsoc", "serve", "fleet",
            "cache", "submit", "jobs", "corpus", "traffic", "disasm")


def _load_target(target: str) -> Program:
    """Resolve a CLI target: workload name, .s assembly, or .c mini-C."""
    from repro.api import load_target

    try:
        return load_target(target)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _shared_options(array: Optional[str], slots: str, spec: str,
                    jobs: bool = False,
                    only: bool = False) -> argparse.ArgumentParser:
    """The one option parent shared by every system-taking subcommand.

    ``array``/``slots``/``spec`` set per-command defaults; ``jobs`` and
    ``only`` opt the command into the execution options.
    """
    from repro.dim.params import DYNFLOW_MODES

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--array", "--arrays", dest="array", default=array,
        help="comma-separated array names (C1,C2,C3,ideal)")
    parent.add_argument(
        "--slots", default=slots,
        help="comma-separated reconfiguration-cache sizes")
    parent.add_argument(
        "--spec", nargs="?", const="on", default=spec,
        choices=("off", "on", "both"),
        help="speculation: off, on, or both (bare --spec means on)")
    parent.add_argument(
        "--dynflow", default="off", choices=DYNFLOW_MODES,
        help="dynamic control-flow mode for every selected "
             "configuration (loop-aware configurations and/or "
             "predicated dual-path merge; needs speculation to take "
             "effect).  Paper arrays are lowered to their shape form, "
             "so configuration names become geometry names")
    if jobs:
        parent.add_argument(
            "--jobs", type=int, default=1,
            help="fan work across N processes (results are "
                 "byte-identical to --jobs 1)")
    if only:
        parent.add_argument(
            "--only", default=None,
            help="comma-separated workload subset")
    return parent


def _corpus_options() -> argparse.ArgumentParser:
    """Option parent for commands that can consume corpus manifests."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--corpus", action="append", default=None, metavar="MANIFEST",
        help="register a corpus manifest's kernels as workloads "
             "(repeatable; exported via REPRO_CORPUS so worker "
             "processes see the same corpus)")
    return parent


def _activate_corpus(paths: Optional[List[str]]) -> List[str]:
    """Register corpus manifests and export them to child processes.

    Returns the registered kernel names in manifest order.  Setting
    ``REPRO_CORPUS`` *before* any pool/subprocess fan-out is what makes
    sweep ``--jobs`` workers, serve batch workers and spawned fleet
    workers resolve the same corpus names byte-identically.
    """
    if not paths:
        return []
    import os

    from repro.corpus import ManifestError, load_manifest, register_corpus
    from repro.workloads import CORPUS_ENV

    names: List[str] = []
    try:
        for path in paths:
            names.extend(register_corpus(load_manifest(path)))
    except (OSError, ManifestError, ValueError) as exc:
        raise SystemExit(f"corpus error: {exc}")
    parts = [p for p in os.environ.get(CORPUS_ENV, "").split(os.pathsep)
             if p]
    for path in paths:
        absolute = os.path.abspath(path)
        if absolute not in parts:
            parts.append(absolute)
    os.environ[CORPUS_ENV] = os.pathsep.join(parts)
    return names


def _build_specs(args: argparse.Namespace) -> List[SystemSpec]:
    """Expand ``--array/--slots/--spec`` into :class:`SystemSpec`\\ s.

    The single spec-construction path for every subcommand; all
    validation errors surface as :class:`SystemExit` with the
    underlying :class:`repro.system.config.SystemSpec` message.
    """
    from repro.system.config import PAPER_SHAPES, SystemSpec

    arrays = [a.strip() for a in args.array.split(",") if a.strip()]
    try:
        slot_counts = [int(s) for s in str(args.slots).split(",")
                       if str(s).strip()]
    except ValueError:
        raise SystemExit(f"--slots must be comma-separated integers, "
                         f"got {args.slots!r}")
    spec_values = _SPEC_VALUES[args.spec]
    dynflow = getattr(args, "dynflow", "off")
    extras = ((("dynflow_mode", dynflow),) if dynflow != "off" else ())

    def paper_spec(array: str, slots: int, spec: bool) -> SystemSpec:
        # dim extras require the shape form (mirroring the serve wire
        # protocol), so --dynflow lowers a paper array to its geometry.
        if extras and array in PAPER_SHAPES:
            return SystemSpec(shape=PAPER_SHAPES[array], slots=slots,
                              speculation=spec, dim_extras=extras)
        return SystemSpec(array=array, slots=slots, speculation=spec)

    specs: List[SystemSpec] = []
    try:
        if extras and "ideal" in arrays:
            raise ValueError("--dynflow does not apply to the ideal "
                             "array (it never reconfigures)")
        for array in arrays:
            for spec in spec_values:
                if array == "ideal":
                    specs.append(SystemSpec(array="ideal",
                                            speculation=spec))
                else:
                    for slot_count in slot_counts:
                        specs.append(paper_spec(array, slot_count,
                                                spec))
        if getattr(args, "ideal", False) and "ideal" not in arrays:
            if extras:
                raise ValueError("--dynflow does not apply to the "
                                 "ideal array (it never reconfigures)")
            for spec in spec_values:
                specs.append(SystemSpec(array="ideal",
                                        speculation=spec))
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not specs:
        raise SystemExit("no configurations selected")
    return specs


def _build_configs(args: argparse.Namespace) -> List[SystemConfig]:
    """Build system configurations from the shared options.

    ``--array`` unset means the full paper Table 2 matrix; otherwise
    every selected :class:`SystemSpec` is built.
    """
    if args.array is None:
        if getattr(args, "dynflow", "off") != "off":
            raise SystemExit(
                "--dynflow needs an explicit --arrays selection (the "
                "default paper Table 2 matrix is mode-less)")
        from repro.system.sweep import paper_matrix

        return paper_matrix()
    return [spec.build() for spec in _build_specs(args)]


def _single_config(args: argparse.Namespace) -> SystemConfig:
    configs = _build_configs(args)
    if len(configs) != 1:
        raise SystemExit(
            f"this command runs exactly one system, but "
            f"--array/--slots/--spec select {len(configs)}; use 'sweep' "
            f"for a matrix")
    return configs[0]


def _write_telemetry(telemetry: Optional[Telemetry], path: Optional[str],
                     counts: bool = True, file=None) -> None:
    """Write the ``--telemetry`` event log to ``path``, if one was
    given, and say so (with the event counts unless ``counts`` is
    false) on ``file``, stdout by default."""
    if not path:
        return
    telemetry.write_jsonl(path)
    suffix = (f" ({telemetry.events.emitted} events, "
              f"{telemetry.events.dropped} dropped)" if counts else "")
    print(f"wrote {path}{suffix}", file=file)


def _legacy_fast(parser: argparse.ArgumentParser) -> None:
    """Accept ``--fast`` from old scripts and ignore it: one simulator
    serves all."""
    parser.add_argument("--fast", action="store_true",
                        help=argparse.SUPPRESS)


def _add_run(sub) -> None:
    run_p = sub.add_parser(
        "run", help="run a target plain and accelerated",
        parents=[_shared_options("C3", "64", "off"), _corpus_options()])
    run_p.add_argument("target")
    run_p.add_argument("--telemetry", default=None,
                       help="write the runs' telemetry event stream "
                            "and counters as JSONL")
    run_p.set_defaults(func=_cmd_run)
    _legacy_fast(run_p)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import run
    from repro.obs import Telemetry

    _activate_corpus(getattr(args, "corpus", None))
    program = _load_target(args.target)
    config = _single_config(args)
    telemetry = Telemetry() if args.telemetry else None
    comparison = run(program, config=config, telemetry=telemetry)
    plain, accel = comparison.plain, comparison.accelerated
    print(f"plain MIPS : {plain.stats.cycles:,} cycles, "
          f"{plain.stats.instructions:,} instructions, "
          f"exit={plain.exit_code}")
    if plain.output:
        print(f"output     : {plain.output.strip()}")
    dim = accel.dim_stats
    print(f"\n{config.name}: {accel.stats.cycles:,} cycles "
          f"-> {comparison.speedup:.2f}x speedup, "
          f"{comparison.energy_ratio:.2f}x less energy")
    print(f"DIM        : {dim.translations} translations, "
          f"{dim.extensions} extensions, {dim.flushes} flushes, "
          f"{dim.misspeculations} mis-speculations")
    print(f"array      : {dim.array_executions:,} executions covering "
          f"{dim.array_instructions:,} instructions "
          f"({dim.array_instructions / plain.stats.instructions:.0%} of "
          "the program)")
    print(f"cache      : {accel.cache_hits:,}/{accel.cache_lookups:,} "
          f"hits, predictor accuracy "
          f"{accel.predictor_accuracy:.1%}")
    _write_telemetry(telemetry, args.telemetry)
    return 0


def build_parser(commands: Sequence[str] = COMMANDS
                 ) -> argparse.ArgumentParser:
    """The CLI parser with the subcommands ``commands``, by default all
    of them."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transparent reconfigurable acceleration (DIM) "
                    "toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        if command == "run":
            _add_run(sub)
        else:
            from repro import commands as others

            getattr(others, f"add_{command}")(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # build only the named subcommand; --help, no command and an unknown
    # one get the full parser, whose usage lists every command.
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(named).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    # run as ``python -m repro.cli``: let repro.commands import this
    # module instead of loading a second copy of it.
    sys.modules.setdefault("repro.cli", sys.modules[__name__])
    sys.exit(main())
