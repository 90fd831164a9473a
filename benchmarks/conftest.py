"""Shared fixtures for the benchmark harnesses.

Tracing the 18 workloads is the expensive cold step (one functional
simulation each); it now happens at most once per machine: traces are
served from the persistent artifact cache of
:mod:`repro.system.artifacts` (location overridable with
``REPRO_CACHE_DIR``) and only simulated on a cold cache — through the
block-compiled fast path, fanned across a process pool when
``REPRO_JOBS`` is set above 1.  The Table 2 sweep — every workload
through every system configuration — runs through the matrix sweep
engine's rows (:func:`repro.system.sweep.replay_matrix`): all
configurations of a workload share one ``ColumnarContext``, and
baselines and per-cell metrics persist as disk artifacts, so a warm
re-run of the bench suite skips both tracing and replay.  Results are
byte-identical to independent ``evaluate_trace`` calls (asserted by the
test suite).  The paper benches read their metrics off this sweep.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import pytest

from repro.sim.stats import TimingModel
from repro.sim.trace import Trace
from repro.system import PAPER_CACHE_SLOTS, paper_system, replay_matrix
from repro.system.artifacts import ArtifactCache
from repro.system.sweep import Row, paper_matrix, trace_artifact_key
from repro.system.traceeval import SystemMetrics
from repro.workloads import collect_runs, workload_names

ARRAYS = ("C1", "C2", "C3")


def artifact_cache() -> ArtifactCache:
    """The benches' shared persistent artifact cache."""
    return ArtifactCache()  # honours REPRO_CACHE_DIR


@pytest.fixture(scope="session")
def traces() -> Dict[str, Trace]:
    cache = artifact_cache()
    loaded: Dict[str, Trace] = {}
    missing = []
    for name in workload_names():
        trace = cache.load(trace_artifact_key(cache, name))
        if trace is None:
            missing.append(name)
        else:
            loaded[name] = trace
    if missing:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        runs = collect_runs(missing, jobs=jobs, fast=True)
        for name in missing:
            loaded[name] = runs[name].trace
            cache.store(trace_artifact_key(cache, name), runs[name].trace)
    return {name: loaded[name] for name in workload_names()}


@pytest.fixture(scope="session")
def table2_rows(traces) -> Dict[str, Row]:
    """The full Table 2 matrix, one sweep row per workload:
    18 workloads x (3 arrays x 2 x 3 + ideal x 2)."""
    return replay_matrix(traces, paper_matrix(), cache=artifact_cache())


@pytest.fixture(scope="session")
def baselines(table2_rows) -> Dict[str, SystemMetrics]:
    """The standalone-MIPS metrics of every workload."""
    return {name: row_baselines[TimingModel()]
            for name, (row_baselines, _) in table2_rows.items()}


#: (workload, array, spec, slots) -> SystemMetrics; slots=0 means ideal.
SweepKey = Tuple[str, str, bool, int]


@pytest.fixture(scope="session")
def table2_sweep(table2_rows) -> Dict[SweepKey, SystemMetrics]:
    """The Table 2 matrix's cells by (workload, array, spec, slots)."""
    configs = paper_matrix()
    results: Dict[SweepKey, SystemMetrics] = {}
    position = 0
    for array in ARRAYS:
        for spec in (False, True):
            for slots in PAPER_CACHE_SLOTS:
                assert configs[position].name == \
                    paper_system(array, slots, spec).name
                for name, (_, cells) in table2_rows.items():
                    results[(name, array, spec, slots)] = cells[position]
                position += 1
    for spec in (False, True):
        for name, (_, cells) in table2_rows.items():
            results[(name, "ideal", spec, 0)] = cells[position]
        position += 1
    return results


def speedup_of(baselines, metrics_map, key) -> float:
    name = key[0]
    return baselines[name].cycles / metrics_map[key].cycles
