"""Sweep-engine throughput: the matrix path vs the per-config loop.

Not a paper experiment — this bench guards the PR's acceptance bars for
the trace-once / replay-many sweep engine (:mod:`repro.system.sweep`):

- the full 18-workload x 12-configuration matrix must evaluate at least
  3x faster through :func:`evaluate_matrix` than by looping the
  event-driven :func:`evaluate_trace` over every cell;
- a warm-disk-cache re-run of the matrix must be at least 10x faster
  than the cold run that populated the cache;
- both comparisons double as transparency checks: every path must
  produce byte-identical JSON.

All measured wall-clocks and cache rates are written to
``BENCH_sweep.json`` next to this file, so the before/after trajectory
is tracked PR-over-PR in machine-readable form.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.dim.memo import TranslationMemo
from repro.system import paper_system
from repro.system.artifacts import ArtifactCache
from repro.system.energy import EnergyParams
from repro.system.sweep import MatrixResult, evaluate_matrix
from repro.system.traceeval import baseline_metrics, evaluate_trace
from repro.workloads import collect_runs, workload_names
from repro.workloads.suite import SuiteResult, result_from_metrics

#: 3 arrays x {no-spec, spec} x {16, 64} slots = 12 configurations.
CONFIGS = [paper_system(array, slots, spec)
           for array in ("C1", "C2", "C3")
           for spec in (False, True)
           for slots in (16, 64)]

#: wall-clocks and rates recorded below; dumped to BENCH_sweep.json.
RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_sweep.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


@pytest.fixture(scope="module")
def warm_runs():
    """Trace all 18 workloads up front so both timed paths replay
    in-memory traces — the comparison isolates the replay machinery."""
    jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    return collect_runs(workload_names(), jobs=jobs)


def event_suites(runs, memoized):
    """The event-engine reference: one :func:`evaluate_trace` per cell,
    per-configuration suites in the matrix's order.  ``memoized``
    shares one ``TranslationMemo`` per workload across configurations
    (the event engine's own sharing layer)."""
    memos = {name: TranslationMemo() for name in runs}
    suites = []
    for config in CONFIGS:
        results = []
        for name, run in runs.items():
            memo = memos[name] if memoized else None
            results.append(result_from_metrics(
                name, config, baseline_metrics(run.trace, config.timing),
                evaluate_trace(run.trace, config, name=name, memo=memo),
                EnergyParams()))
        suites.append(SuiteResult(config.name, results))
    return MatrixResult(names=list(runs), suites=suites)


def test_matrix_vs_looped_suite(warm_runs, capsys):
    """Acceptance bar #1: the matrix is >=3x the per-cell event loop.

    Both event references are timed: the per-cell loop and the
    memoized event path; every path's JSON is byte-identical.
    """
    start = time.perf_counter()
    looped = event_suites(warm_runs, memoized=False)
    looped_seconds = time.perf_counter() - start

    start = time.perf_counter()
    event_matrix = event_suites(warm_runs, memoized=True)
    event_seconds = time.perf_counter() - start

    start = time.perf_counter()
    matrix = evaluate_matrix(CONFIGS)
    matrix_seconds = time.perf_counter() - start

    assert looped.results_json() == matrix.results_json()
    assert event_matrix.results_json() == matrix.results_json()

    inst = matrix.instrumentation
    engine = "columnar"
    speedup = looped_seconds / matrix_seconds
    RESULTS["matrix_workloads"] = inst.workloads
    RESULTS["matrix_systems"] = inst.systems
    RESULTS["matrix_cells"] = inst.cells
    RESULTS["matrix_engine"] = engine
    RESULTS["looped_suite_seconds"] = looped_seconds
    RESULTS["matrix_event_seconds"] = event_seconds
    RESULTS["matrix_seconds"] = matrix_seconds
    RESULTS["matrix_speedup_over_looped_suite"] = speedup
    RESULTS["matrix_event_speedup_over_looped_suite"] = \
        looped_seconds / event_seconds
    RESULTS["matrix_alloc_hit_rate"] = inst.alloc_hit_rate
    with capsys.disabled():
        print(f"\nlooped evaluate_trace: {looped_seconds:.2f}s, "
              f"memoized evaluate_trace: {event_seconds:.2f}s, "
              f"evaluate_matrix[{engine}]: {matrix_seconds:.2f}s -> "
              f"{speedup:.2f}x (alloc memo {inst.alloc_hit_rate:.1%})")
    assert inst.workloads == 18 and inst.systems >= 12
    assert speedup >= 3.0


def test_warm_disk_cache_vs_cold(warm_runs, tmp_path_factory, capsys):
    """Acceptance bar #2: a warm artifact cache re-run is >=10x cold."""
    root = tmp_path_factory.mktemp("sweep-artifacts")

    start = time.perf_counter()
    cold = evaluate_matrix(CONFIGS, cache=ArtifactCache(root))
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = evaluate_matrix(CONFIGS, cache=ArtifactCache(root))
    warm_seconds = time.perf_counter() - start

    assert warm.results_json() == cold.results_json()
    inst = warm.instrumentation
    assert inst.cells_replayed == 0 and inst.traces_simulated == 0
    assert inst.artifact_hits > 0

    speedup = cold_seconds / warm_seconds
    RESULTS["cold_cache_seconds"] = cold_seconds
    RESULTS["warm_cache_seconds"] = warm_seconds
    RESULTS["warm_cache_speedup"] = speedup
    RESULTS["warm_artifact_hit_rate"] = inst.artifact_hit_rate
    with capsys.disabled():
        print(f"\ncold matrix: {cold_seconds:.2f}s, warm re-run: "
              f"{warm_seconds:.2f}s -> {speedup:.1f}x "
              f"(artifact hit rate {inst.artifact_hit_rate:.1%})")
    assert speedup >= 10.0
