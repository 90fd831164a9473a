"""Columnar replay engine: the PR's headline acceptance bar.

Not a paper experiment — this bench guards the columnar replay engine
(:mod:`repro.system.colreplay`) on the 216-cell matrix (18 workloads x
12 configurations: C1/C2/C3 x {no-spec, spec} x {16, 64} slots):

- every cell must be *bit-identical* across all three replay paths —
  per-cell event-driven :func:`evaluate_trace`, memoized event replay
  (:func:`evaluate_trace` through one of the test oracle's
  ``TranslationMemo`` per workload), and the vectorised columnar
  engine;
- the columnar engine must be at least 10x faster than per-cell
  event-driven replay (it is also ~5x faster than the memoized event
  path; both comparisons are recorded).

All wall-clocks and speedups are written to ``BENCH_columnar.json``
next to this file, so the trajectory is tracked PR-over-PR in
machine-readable form.
"""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from repro.system import paper_system
from repro.system.colreplay import ColumnarContext, evaluate_trace_columnar
from repro.system.traceeval import evaluate_trace
from tests.oracle import TranslationMemo, evaluate_memoized

#: 3 arrays x {no-spec, spec} x {16, 64} slots = 12 configurations.
CONFIGS = [paper_system(array, slots, spec)
           for array in ("C1", "C2", "C3")
           for spec in (False, True)
           for slots in (16, 64)]

#: wall-clocks and speedups recorded below; dumped to BENCH_columnar.json.
RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_columnar.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


def test_columnar_bit_identical_and_10x(traces, capsys):
    """216 bit-identical cells; columnar >=10x per-cell event replay."""
    # 1. per-cell event-driven replay: one evaluate_trace per cell,
    #    nothing shared between cells (the engine every cell ran on
    #    before the sweep layer existed).
    start = time.perf_counter()
    event_cells = {}
    for name, trace in traces.items():
        for index, config in enumerate(CONFIGS):
            event_cells[(name, index)] = evaluate_trace(trace, config,
                                                        name=name)
    event_seconds = time.perf_counter() - start

    # 2. memoized event replay: all configurations of a workload share
    #    one probe-validated TranslationMemo (the test oracle's
    #    sharing layer; sweeps share a ColumnarContext instead).
    start = time.perf_counter()
    memo_cells = {}
    for name, trace in traces.items():
        memo = TranslationMemo()
        for index, config in enumerate(CONFIGS):
            memo_cells[(name, index)] = evaluate_memoized(
                trace, config, memo, name=name)
    event_memo_seconds = time.perf_counter() - start

    # 3. columnar replay: one lowering + one shared ColumnarContext per
    #    workload, vectorised accounting (fresh contexts, so the
    #    measured time includes the lowering passes).
    start = time.perf_counter()
    columnar_cells = {}
    for name, trace in traces.items():
        context = ColumnarContext(trace, name=name)
        for index, config in enumerate(CONFIGS):
            columnar_cells[(name, index)] = evaluate_trace_columnar(
                trace, config, name=name, context=context)
    columnar_seconds = time.perf_counter() - start

    mismatches = []
    for key, event_metrics in event_cells.items():
        reference = dataclasses.asdict(event_metrics)
        if dataclasses.asdict(columnar_cells[key]) != reference:
            mismatches.append(("columnar",) + key)
        if dataclasses.asdict(memo_cells[key]) != reference:
            mismatches.append(("memo",) + key)

    speedup_vs_event = event_seconds / columnar_seconds
    speedup_vs_memo = event_memo_seconds / columnar_seconds
    RESULTS["cells"] = len(event_cells)
    RESULTS["workloads"] = len(traces)
    RESULTS["systems"] = len(CONFIGS)
    RESULTS["event_seconds"] = event_seconds
    RESULTS["event_memo_seconds"] = event_memo_seconds
    RESULTS["columnar_seconds"] = columnar_seconds
    RESULTS["speedup_vs_event"] = speedup_vs_event
    RESULTS["speedup_vs_event_memo"] = speedup_vs_memo
    RESULTS["mismatches"] = len(mismatches)
    with capsys.disabled():
        print(f"\n{len(event_cells)} cells: per-cell event "
              f"{event_seconds:.2f}s, memoized event "
              f"{event_memo_seconds:.2f}s, columnar "
              f"{columnar_seconds:.2f}s -> {speedup_vs_event:.1f}x vs "
              f"event, {speedup_vs_memo:.1f}x vs memoized "
              f"({len(mismatches)} mismatches)")

    assert not mismatches, mismatches[:10]
    assert len(event_cells) == 216
    assert speedup_vs_event >= 10.0
