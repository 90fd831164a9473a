"""Dynamic control-flow translation: the PR's acceptance bench.

Not a paper experiment — the paper's translator stops at speculative
basic-block merging.  This bench guards the ``dynflow`` extensions
(:mod:`repro.dim` loop-aware configurations and predicated dual-path
merge, ``DimParams.dynflow_mode``) with three machine-checked claims:

- **Speedup gate** — on a loop-heavy synthetic corpus evaluated at a
  port-constrained embedded design point (single register-file
  read/write port, no reconfiguration overlap), loop-aware
  configurations improve the geomean speedup over plain three-block
  speculation by at least 1.3x at the same cache size.  The honest
  paper-configuration numbers (C1/C2/C3, where the wide-ported register
  file already hides most operand traffic) are recorded alongside, as
  is dual-path merge's actual trade on a divergent corpus: slightly
  more cycles, markedly fewer misspeculations.

- **Frontier dominance** — a DSE frontier explored with the
  ``dynflow_mode`` axis open weakly dominates the frontier of the same
  space without it, and strictly improves somewhere (the ``off`` plane
  *is* the mode-less space, so this is the "new axis only helps"
  guarantee).

- **Engine identity** — every (workload, mode) cell of the bench is
  bit-identical between the event-driven evaluator and the vectorised
  columnar engine.

All numbers are written to ``BENCH_dynflow.json`` next to this file so
the trajectory is tracked PR-over-PR in machine-readable form.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import pytest

from repro import api
from repro.cgra.shape import ArrayShape
from repro.corpus import CorpusKnobs, generate_corpus, register_corpus
from repro.dim import DimParams
from repro.dse import (
    dominates,
    explore,
    objective_vector,
    resolve_objectives,
)
from repro.dse.space import Axis, ParameterSpace
from repro.system import paper_system
from repro.system.colreplay import ColumnarContext, evaluate_trace_columnar
from repro.system.traceeval import baseline_metrics, evaluate_trace
from repro.workloads import run_workload

MODES = ("off", "loop", "dual", "both")

#: the port-constrained embedded design point: one register-file read
#: port and one write port make per-entry operand fetch and result
#: drain dominate every array execution, which is exactly the cost an
#: iterating configuration amortises across trips.  No reconfiguration
#: overlap for the same reason.  Cache stays at 16 slots on both arms.
EMBEDDED_SHAPE = ArrayShape(rows=32, alus_per_row=4, mults_per_row=1,
                            ldsts_per_row=2, rf_read_ports=1,
                            rf_write_ports=1)

#: corpus seeds; distinct from the test suite's (13, 14) so bench and
#: test registrations never collide on kernel names.
LOOPY_SEED, DIVERGENT_SEED = 41, 42
CORPUS_KERNELS = 8

#: everything measured below; dumped to BENCH_dynflow.json.
RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_dynflow.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


@pytest.fixture(scope="module", autouse=True)
def _clean_registry_afterwards():
    from repro.workloads import unregister_generated

    yield
    unregister_generated()  # keep the registry clean for later modules


@pytest.fixture(scope="module")
def loopy_names():
    return register_corpus(generate_corpus(
        LOOPY_SEED, CORPUS_KERNELS, knobs=CorpusKnobs.loopy()))


@pytest.fixture(scope="module")
def divergent_names():
    return register_corpus(generate_corpus(
        DIVERGENT_SEED, CORPUS_KERNELS, knobs=CorpusKnobs.divergent()))


def _embedded_config(mode: str):
    return api.SystemSpec.of(
        EMBEDDED_SHAPE,
        DimParams(cache_slots=16, speculation=True, reconfig_overlap=0,
                  dynflow_mode=mode)).build()


def _paper_config(array: str, mode: str):
    base = paper_system(array, 64, True)
    return dataclasses.replace(
        base, dim=dataclasses.replace(base.dim, dynflow_mode=mode),
        name=f"{base.name}-{mode}")


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _mode_speedups(names, config_of_mode):
    """{mode: geomean speedup over the MIPS baseline} for ``names``."""
    speedups = {mode: [] for mode in MODES}
    for name in names:
        trace = run_workload(name).trace
        base = baseline_metrics(trace).cycles
        for mode in MODES:
            metrics = evaluate_trace(trace, config_of_mode(mode),
                                     name=name)
            speedups[mode].append(base / metrics.cycles)
    return {mode: _geomean(values) for mode, values in speedups.items()}


def test_loop_mode_speedup_gate(loopy_names, divergent_names, capsys):
    """Loop mode >=1.3x over 3-block speculation on the loopy corpus at
    the embedded design point; honest numbers everywhere else."""
    start = time.perf_counter()
    embedded = _mode_speedups(loopy_names, _embedded_config)
    improvement = {mode: embedded[mode] / embedded["off"]
                   for mode in MODES}

    # The honest context: at the paper's wide-ported configurations the
    # register file hides most operand traffic, so loop amortisation
    # buys far less.  Recorded, not gated.
    paper = {}
    for array in ("C1", "C2", "C3"):
        geo = _mode_speedups(
            loopy_names, lambda mode, a=array: _paper_config(a, mode))
        paper[array] = {mode: round(geo[mode] / geo["off"], 4)
                        for mode in MODES}

    # Dual-path merge's actual trade on divergent control flow: fewer
    # misspeculations (the win), bought with predicated dual execution
    # (the cost).  Measured on the divergent corpus at C1/64.
    dual_trade = {"misspeculations": {}, "cycles": {}}
    for mode in ("off", "dual"):
        config = _paper_config("C1", mode)
        missp = cycles = 0
        for name in divergent_names:
            trace = run_workload(name).trace
            metrics = evaluate_trace(trace, config, name=name)
            missp += metrics.dim.misspeculations
            cycles += metrics.cycles
        dual_trade["misspeculations"][mode] = missp
        dual_trade["cycles"][mode] = cycles

    RESULTS["speedup_gate"] = {
        "shape": dataclasses.asdict(EMBEDDED_SHAPE),
        "cache_slots": 16,
        "corpus": {"profile": "loopy", "seed": LOOPY_SEED,
                   "kernels": CORPUS_KERNELS},
        "geomean_speedup": {mode: round(value, 4)
                            for mode, value in embedded.items()},
        "improvement_over_off": {mode: round(value, 4)
                                 for mode, value in improvement.items()},
        "paper_config_improvement": paper,
        "dual_trade_divergent_C1": dual_trade,
        "wall_seconds": round(time.perf_counter() - start, 2),
    }
    with capsys.disabled():
        print(f"\n[dynflow] loop improvement over speculation: "
              f"{improvement['loop']:.3f}x (gate >= 1.3x); "
              f"dual misspeculations {dual_trade['misspeculations']}")

    best = max(improvement[mode] for mode in ("loop", "dual", "both"))
    assert best >= 1.3, improvement
    assert improvement["loop"] >= 1.3, improvement
    # dual's win is fewer misspeculations, not cycles — assert the
    # direction so the trade stays honest.
    assert (dual_trade["misspeculations"]["dual"]
            < dual_trade["misspeculations"]["off"]), dual_trade


def _bench_axes():
    """The frontier study's shared geometry axes (4 base points)."""
    return (
        Axis("rows", (16, 32)),
        Axis("alus_per_row", (4,)),
        Axis("mults_per_row", (1,)),
        Axis("ldsts_per_row", (2,)),
        Axis("rf_read_ports", (1,)),
        Axis("rf_write_ports", (1,)),
        Axis("cache_slots", (16, 64)),
        Axis("speculation", (True,)),
        Axis("reconfig_overlap", (0,)),
    )


def test_dynflow_frontier_dominates_modeless_frontier(loopy_names,
                                                      capsys):
    """Opening the dynflow_mode axis never loses frontier points and
    strictly gains somewhere."""
    start = time.perf_counter()
    modeless = ParameterSpace(axes=_bench_axes())
    with_modes = ParameterSpace(axes=_bench_axes()
                                + (Axis("dynflow_mode", MODES),))
    objectives = resolve_objectives(("speedup", "area"))
    off = explore(space=modeless, strategy="grid",
                  workloads=loopy_names)
    dyn = explore(space=with_modes, strategy="grid",
                  workloads=loopy_names)

    off_vectors = [objective_vector(p, objectives) for p in off.points]
    dyn_vectors = [objective_vector(p, objectives) for p in dyn.points]
    weakly_covered = all(
        any(dominates(q, p, objectives) or q == p for q in dyn_vectors)
        for p in off_vectors)
    strict = sum(
        any(dominates(q, p, objectives) for q in dyn_vectors)
        for p in off_vectors)

    RESULTS["frontier"] = {
        "workloads": list(loopy_names),
        "modeless": {
            "space_size": modeless.size,
            "frontier_points": len(off.points),
            "best_speedup": round(off.best("speedup").geomean_speedup, 4),
        },
        "with_modes": {
            "space_size": with_modes.size,
            "frontier_points": len(dyn.points),
            "best_speedup": round(dyn.best("speedup").geomean_speedup, 4),
            "best_candidate": dyn.best("speedup").candidate.as_dict(),
        },
        "weakly_covered": weakly_covered,
        "strictly_improved_points": strict,
        "wall_seconds": round(time.perf_counter() - start, 2),
    }
    with capsys.disabled():
        print(f"\n[dynflow] frontier best speedup "
              f"{RESULTS['frontier']['modeless']['best_speedup']} -> "
              f"{RESULTS['frontier']['with_modes']['best_speedup']}, "
              f"{strict}/{len(off_vectors)} points strictly improved")

    assert weakly_covered
    assert strict >= 1
    assert (dyn.best("speedup").geomean_speedup
            >= off.best("speedup").geomean_speedup)
    # the winning point actually uses a dynflow mode.
    assert dyn.best("speedup").candidate.get("dynflow_mode") != "off"


def test_bench_cells_bit_identical_event_vs_columnar(loopy_names,
                                                     divergent_names):
    """Every bench cell agrees field-for-field across both engines."""
    start = time.perf_counter()
    configs = ([_embedded_config(mode) for mode in MODES]
               + [_paper_config("C1", mode) for mode in MODES])
    mismatches = cells = 0
    for name in loopy_names + divergent_names:
        trace = run_workload(name).trace
        context = ColumnarContext(trace, name=name)
        for config in configs:
            event = evaluate_trace(trace, config, name=name)
            columnar = evaluate_trace_columnar(trace, config, name=name,
                                               context=context)
            cells += 1
            if dataclasses.asdict(event) != dataclasses.asdict(columnar):
                mismatches += 1
    RESULTS["engine_identity"] = {
        "cells": cells,
        "mismatches": mismatches,
        "wall_seconds": round(time.perf_counter() - start, 2),
    }
    assert mismatches == 0 and cells == 2 * CORPUS_KERNELS * len(configs)
