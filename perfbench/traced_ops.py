"""Traced CLI ops: the work of ``repro run`` / ``repro sweep``, done by
calling the same public functions with a timer around each layer.

Runs in a fresh interpreter, like the op it traces, and prints one JSON
object of layer seconds on its last stdout line::

    python3 perfbench/traced_ops.py run crc C1 16 0
    python3 perfbench/traced_ops.py sweep crc,sha <store-dir>

The benchmark checks the traced op's answers against the untraced op
(cycle counts for ``run``, the results-JSON digest for ``sweep``).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

clock = time.perf_counter


def traced_run(name: str, array: str, slots: int, spec: bool) -> dict:
    layers = {}
    start = clock()
    import repro.cli  # noqa: F401  (what every CLI op imports first)
    from repro.api import SystemSpec, load_target
    from repro.sim import run_program
    from repro.system import evaluate_trace
    from repro.system.coupled import run_coupled
    from repro.system.traceeval import baseline_metrics
    layers["cli.startup_s"] = clock() - start

    start = clock()
    program = load_target(name)
    config = SystemSpec(array=array, slots=slots, speculation=spec).build()
    layers["cli.load_s"] = clock() - start

    start = clock()
    plain = run_program(program, collect_trace=True, fast=True)
    layers["sim.trace_s"] = clock() - start

    start = clock()
    accel = run_coupled(program, config, fast=True)
    layers["coupled.run_s"] = clock() - start

    start = clock()
    baseline_metrics(plain.trace, config.timing)
    evaluate_trace(plain.trace, config)
    layers["traceeval.eval_s"] = clock() - start
    return {"layers": layers,
            "instructions": plain.stats.instructions,
            "plain_cycles": plain.stats.cycles,
            "accel_cycles": accel.stats.cycles}


def _sweep_configs():
    from repro.api import SystemSpec

    # the order `repro sweep --arrays C1,C2,C3 --slots 16,64 --spec both`
    # builds: arrays, then speculation, then slots.
    return [SystemSpec(array=array, slots=slots, speculation=spec).build()
            for array in ("C1", "C2", "C3")
            for spec in (False, True)
            for slots in (16, 64)]


def traced_sweep(names, store_dir: str) -> dict:
    layers = dict.fromkeys(
        ("sim.trace_s", "coltrace.lower_s", "colreplay.nospec_s",
         "colreplay.spec_s", "colreplay.baseline_s", "sweep.assemble_s"),
        0.0)
    start = clock()
    import repro.cli  # noqa: F401
    from repro.system.colreplay import (ColumnarContext,
                                        baseline_metrics_columnar,
                                        evaluate_trace_columnar)
    from repro.system.energy import EnergyParams
    from repro.system.sweep import MatrixResult
    from repro.workloads import run_workload
    from repro.workloads.suite import SuiteResult, result_from_metrics
    layers["cli.startup_s"] = clock() - start

    configs = _sweep_configs()
    rows, contexts = {}, {}
    instructions = alloc_hits = alloc_misses = 0
    for name in names:
        start = clock()
        run = run_workload(name, fast=True)
        layers["sim.trace_s"] += clock() - start
        instructions += run.stats.instructions

        start = clock()
        context = ColumnarContext(run.trace, name=name)
        layers["coltrace.lower_s"] += clock() - start
        contexts[name] = context

        cells = []
        for config in configs:
            start = clock()
            cells.append(evaluate_trace_columnar(run.trace, config,
                                                 name=name,
                                                 context=context))
            tier = ("colreplay.spec_s" if config.dim.speculation
                    else "colreplay.nospec_s")
            layers[tier] += clock() - start
        start = clock()
        baselines = {config.timing: None for config in configs}
        for timing in baselines:
            baselines[timing] = baseline_metrics_columnar(context, timing)
        layers["colreplay.baseline_s"] += clock() - start
        alloc_hits += context.alloc_hits
        alloc_misses += context.alloc_misses
        rows[name] = (baselines, cells)

    start = clock()
    suites = []
    for index, config in enumerate(configs):
        suites.append(SuiteResult(config.name, [
            result_from_metrics(name, config, rows[name][0][config.timing],
                                rows[name][1][index], EnergyParams())
            for name in names]))
    text = MatrixResult(names=list(names), suites=suites).results_json()
    layers["sweep.assemble_s"] = clock() - start
    op_end = clock()

    # outside the op: warm re-evaluation and the artifact store.
    start = clock()
    for name in names:
        run = run_workload(name, fast=True)
        for config in configs:
            evaluate_trace_columnar(run.trace, config, name=name,
                                    context=contexts[name])
    warm_s = clock() - start
    store_s, load_s, entries = _artifact_round_trip(store_dir, names,
                                                    configs, rows)
    return {"layers": layers, "op_end": op_end,
            "instructions": instructions,
            "cells": len(names) * len(configs),
            "baselines": len(names) * len({c.timing for c in configs}),
            "alloc_hits": alloc_hits, "alloc_misses": alloc_misses,
            "warm_s": warm_s, "store_s": store_s, "load_s": load_s,
            "entries": entries,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _artifact_round_trip(store_dir, names, configs, rows):
    """Store every cell's metrics, then load them in a fresh cache."""
    from pathlib import Path

    from repro.system.artifacts import ArtifactCache
    from repro.system.sweep import metrics_artifact_key

    cache = ArtifactCache(Path(store_dir))
    keys = []
    start = clock()
    for name in names:
        for config, metrics in zip(configs, rows[name][1]):
            key = metrics_artifact_key(cache, name, config)
            cache.store(key, metrics)
            keys.append((key, metrics))
    store_s = clock() - start
    reader = ArtifactCache(Path(store_dir))
    start = clock()
    for key, metrics in keys:
        if reader.load(key) != metrics:
            raise SystemExit(f"artifact {key} did not round-trip")
    load_s = clock() - start
    return store_s, load_s, len(keys)


def main(argv) -> int:
    if argv[0] == "run":
        name, array, slots, spec = argv[1:5]
        report = traced_run(name, array, int(slots), spec == "1")
        report["op_end"] = clock()
    elif argv[0] == "sweep":
        report = traced_sweep(argv[1].split(","), argv[2])
    else:
        raise SystemExit(f"unknown traced op {argv[0]!r}")
    # the traced op is everything up to op_end; work after it (warm
    # re-evaluation, the artifact round trip) is reported separately.
    report["post_op_s"] = clock() - report.pop("op_end")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
