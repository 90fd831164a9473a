"""The repository benchmark: three workloads (cli-run, cli-sweep,
serve-zipf) over the canonical paths, of which ``BENCHMARK.json``
tracks the first two; serve and fleet are in the layer profile.

    python3 perfbench/run.py --workload cli-run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload

``--trace 0`` measures the workload's end-to-end metrics; ``--trace 1``
runs the layer profile (see ``layers.py``) instead.  The metric names,
units and bounds come from ``BENCHMARK.json`` at the repository root.
A human-readable report (host facts, every metric with its unit,
generator validity, model accuracy) goes to stderr; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the program is missing or
a process from an earlier run is still alive.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

import goldens
import procs
import service
from workloads import WORKLOADS, Context


def host_facts() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def declared() -> dict:
    path = procs.ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise procs.BenchError(f"cannot read {path}: {exc}")
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            reaper: procs.Reaper, golden: dict, units: dict) -> dict:
    ctx = Context(seed, seconds, reaper, golden)
    if trace:
        import layers
        measured = layers.profile(ctx)
        wanted = units["per_layer"]
    else:
        measured = WORKLOADS[workload](ctx)
        wanted = units["end_to_end"]
    missing = sorted(set(wanted) - set(measured))
    if missing:
        raise procs.BenchError(f"not measured: {', '.join(missing)}")
    report(workload, seed, trace, ctx, measured, wanted)
    return {"correct": ctx.failed == 0, "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": {name: {"value": measured[name], "unit": unit}
                        for name, unit in wanted.items()}}


def report(workload, seed, trace, ctx, measured, wanted) -> None:
    out = sys.stderr
    facts = host_facts()
    print(f"\n== {workload} seed={seed} trace={int(trace)} "
          f"seconds={ctx.seconds:g}", file=out)
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()),
          file=out)
    print(f"ops: {ctx.attempted} attempted, {ctx.failed} failed or "
          f"wrong (error_frac {ctx.failed / max(1, ctx.attempted):.4f})",
          file=out)
    for name, value in sorted(measured.items()):
        unit = wanted.get(name, "")
        tag = "" if name in wanted else "  (report only)"
        print(f"  {name:28s} {value:14.4f} {unit}{tag}", file=out)
    for name, value in ctx.notes.items():
        if name == "model_vs_paper":
            print("  model vs paper (Table 2 geomean speedups):", file=out)
            for row in value:
                print(f"    {row['system']:14s} model {row['model']:6.3f}"
                      f"  paper {row['paper']:6.3f}"
                      f"  error {row['error_pct']:+6.1f}%", file=out)
        else:
            print(f"  {name:28s} {value}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro run, sweep and serve paths.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        procs.require_program()
        units = declared()
        procs.WORK.mkdir(parents=True, exist_ok=True)
        procs.refuse_if_stale()
        golden = goldens.load()
    except (procs.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    procs.become_subreaper()
    reaper = procs.Reaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        # the checkout's one build step: the warm store every service
        # set-up copies, made once per program source digest.
        service.template_store(reaper)
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds,
                                    bool(args.trace), reaper, golden, units)
    except procs.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        reaper.stop_all()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
