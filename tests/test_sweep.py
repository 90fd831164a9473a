"""The matrix sweep engine: transparency of all three sharing layers.

The contract under test is strong: :func:`evaluate_matrix` must produce
JSON *byte-identical* to evaluating every cell alone on the event
engine (``tests/oracle.py``) and to looping :func:`evaluate_suite` over
the same configurations — serial or parallel, cold or warm artifact
cache — and the memoization layers must never change a single metric.
"""

import pickle
import typing

import pytest

from repro.cli import main
from repro.dim.params import policy_key
from repro.system import paper_system
from repro.system.artifacts import ArtifactCache
from repro.system.sweep import (
    evaluate_matrix,
    metrics_artifact_key,
    paper_matrix,
    replay_matrix,
    trace_artifact_key,
)
from repro.system.traceeval import baseline_metrics, evaluate_trace
from repro.workloads import run_workload
from repro.workloads.suite import evaluate_suite
from tests.oracle import TranslationMemo, evaluate_memoized, event_matrix

WORKLOADS = ("crc", "sha", "quicksort")


def small_configs():
    return [
        paper_system("C1", 16, False),
        paper_system("C2", 64, True),
        paper_system("C3", 256, True),
        paper_system("ideal", speculation=True),
    ]


# ----------------------------------------------------------------------
# Byte-identity with the per-config suite API.
# ----------------------------------------------------------------------
def test_matrix_matches_looped_suite():
    configs = small_configs()
    matrix = evaluate_matrix(configs, names=WORKLOADS)
    for config in configs:
        suite = evaluate_suite(config, names=WORKLOADS)
        assert matrix.suite(config.name).to_json() == suite.to_json()
    oracle = event_matrix(configs, WORKLOADS)
    assert matrix.results_json() == oracle.results_json()


def test_serial_cold_sweep_phases_fit_in_total(monkeypatch):
    """A sweep replays every cell once, and trace time is not also
    counted as replay time."""
    import repro.workloads as workloads

    monkeypatch.setattr(workloads, "_RUNS", {})
    configs = [paper_system(array, slots, spec)
               for array in ("C1", "C3") for spec in (False, True)
               for slots in (16, 64)]
    inst = evaluate_matrix(configs,
                           names=["crc", "sha", "bitcount"]).instrumentation
    assert inst.traces_simulated == 3
    assert inst.cells_replayed == 24
    assert inst.trace_seconds + inst.replay_seconds <= inst.total_seconds


def test_memo_work_matches_pinned_counts():
    """The translation memo's hits and misses on CI's columnar-smoke
    sweep (crc,sha x C1,C3 x 16,64 x spec both; a one-shot sweep builds
    fresh columnar contexts) are pinned in tests/data: weakening the
    memo, or changing how often the translator runs, moves them."""
    import json
    from pathlib import Path

    configs = [paper_system(array, slots, spec)
               for array in ("C1", "C3") for slots in (16, 64)
               for spec in (False, True)]
    inst = evaluate_matrix(configs, names=["crc", "sha"]).instrumentation
    pinned = json.loads((Path(__file__).parent / "data"
                         / "columnar_smoke_memo.json").read_text())
    assert {"alloc_hits": inst.alloc_hits,
            "alloc_misses": inst.alloc_misses} == pinned


def test_parallel_matches_serial():
    configs = small_configs()
    serial = evaluate_matrix(configs, names=WORKLOADS)
    parallel = evaluate_matrix(configs, names=WORKLOADS,
                               jobs=2)
    assert serial.results_json() == parallel.results_json()
    assert parallel.instrumentation.jobs == 2


def test_warm_disk_cache_identical_and_hits(tmp_path):
    configs = small_configs()
    cold = evaluate_matrix(configs, names=WORKLOADS,
                           cache=ArtifactCache(tmp_path))
    assert cold.instrumentation.artifact_stores > 0
    warm = evaluate_matrix(configs, names=WORKLOADS,
                           cache=ArtifactCache(tmp_path))
    assert warm.results_json() == cold.results_json()
    inst = warm.instrumentation
    assert inst.traces_simulated == 0
    assert inst.cells_replayed == 0
    assert inst.cells_from_disk == len(WORKLOADS) * len(configs)
    assert inst.artifact_hits > 0
    assert inst.artifact_hit_rate == 1.0


def test_warm_cache_parallel_identical(tmp_path):
    configs = small_configs()
    cold = evaluate_matrix(configs, names=WORKLOADS,
                           cache=ArtifactCache(tmp_path), jobs=2)
    warm = evaluate_matrix(configs, names=WORKLOADS,
                           cache=ArtifactCache(tmp_path))
    assert warm.results_json() == cold.results_json()


def test_serial_artifact_counters_count_each_lookup_once(tmp_path):
    """Serial rows share one cache, pool rows get one each: both must
    report every artifact lookup and store exactly once."""
    configs = small_configs()
    evaluate_matrix(configs, names=WORKLOADS,
                    cache=ArtifactCache(tmp_path))
    serial, pooled = (
        evaluate_matrix(configs, names=WORKLOADS,
                        cache=ArtifactCache(tmp_path),
                        jobs=jobs).instrumentation
        for jobs in (1, 2))
    assert serial.artifact_hits \
        == serial.cells_from_disk + serial.baselines_from_disk
    assert serial.artifact_misses == serial.artifact_stores == 0
    assert (serial.artifact_hits, serial.artifact_misses,
            serial.artifact_stores) == (pooled.artifact_hits,
                                        pooled.artifact_misses,
                                        pooled.artifact_stores)


def test_corrupt_cell_artifact_is_counted_and_replayed(tmp_path):
    """A damaged cell record reaches the sweep's counters as one
    corrupt miss; the cell is replayed and the result is unchanged."""
    configs = [paper_system("C1", 16, True)]
    cache = ArtifactCache(tmp_path)
    cold = evaluate_matrix(configs, names=["crc"], cache=cache)
    path = cache._path(metrics_artifact_key(cache, "crc", configs[0]))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    warm = evaluate_matrix(configs, names=["crc"],
                           cache=ArtifactCache(tmp_path))
    assert warm.results_json() == cold.results_json()
    inst = warm.instrumentation
    assert inst.artifact_corrupt == 1
    assert inst.cells_replayed == 1
    assert inst.counters()["sweep.artifact_corrupt"] == 1


# ----------------------------------------------------------------------
# The metrics-level API and the translation memo.
# ----------------------------------------------------------------------
def test_replay_matrix_matches_fresh_evaluations():
    configs = small_configs()
    traces = {name: run_workload(name).trace
              for name in WORKLOADS}
    rows = replay_matrix(traces, configs)
    assert list(rows) == list(WORKLOADS)
    for name, trace in traces.items():
        baselines, cells = rows[name]
        assert baselines == {config.timing: baseline_metrics(
            trace, config.timing) for config in configs}
        for index, config in enumerate(configs):
            fresh = evaluate_trace(trace, config, name=name)
            assert cells[index] == fresh


def test_replay_matrix_keeps_unregistered_rows_out_of_the_store(
        tmp_path):
    trace = run_workload("crc").trace
    rows = replay_matrix({"not-a-workload": trace}, small_configs(),
                         cache=ArtifactCache(tmp_path))
    assert len(rows["not-a-workload"][1]) == len(small_configs())
    assert not any(tmp_path.iterdir())


def test_memo_shares_translations_across_slot_variants():
    trace = run_workload("crc").trace
    memo = TranslationMemo()
    first = evaluate_memoized(trace, paper_system("C2", 16, True), memo)
    misses_after_first = memo.misses
    second = evaluate_memoized(trace, paper_system("C2", 256, True), memo)
    # the slot-count change shares the memo partition entirely
    assert memo.misses == misses_after_first
    assert memo.hits > 0
    assert first == evaluate_trace(trace, paper_system("C2", 16, True))
    assert second == evaluate_trace(trace, paper_system("C2", 256, True))


def test_policy_key_ignores_cache_geometry():
    a = paper_system("C2", 16, True).dim
    b = paper_system("C2", 256, True).dim
    assert policy_key(a) == policy_key(b)


def test_memo_bounds_variants_per_key():
    assert TranslationMemo.MAX_VARIANTS < 100


# ----------------------------------------------------------------------
# The artifact cache.
# ----------------------------------------------------------------------
def test_artifact_roundtrip_and_corruption(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit-test", 42)
    assert cache.load(key) is None          # cold miss
    cache.store(key, {"cycles": 123})
    assert cache.load(key) == {"cycles": 123}
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    assert cache.load(key) is None          # corruption -> miss
    assert not path.exists()                # ...and the entry is dropped


def test_artifact_key_rejects_wrong_record(tmp_path):
    cache = ArtifactCache(tmp_path)
    key_a = cache.key("metrics", "a")
    key_b = cache.key("metrics", "b")
    cache.store(key_a, 1)
    # simulate a hash collision / copied file: record key mismatch
    cache._path(key_b).parent.mkdir(parents=True, exist_ok=True)
    cache._path(key_b).write_bytes(
        pickle.dumps({"key": key_a, "payload": 1}))
    assert cache.load(key_b) is None


def test_trace_artifact_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    trace = run_workload("crc").trace
    key = trace_artifact_key(cache, "crc")
    cache.store(key, trace)
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.events == trace.events
    config = paper_system("C2", 64, True)
    assert evaluate_trace(loaded, config) == evaluate_trace(trace, config)


# ----------------------------------------------------------------------
# CLI and plumbing.
# ----------------------------------------------------------------------
def test_cli_sweep_writes_reports(tmp_path, capsys):
    report = tmp_path / "matrix.json"
    inst_path = tmp_path / "inst.json"
    assert main(["sweep", "--only", "crc", "--arrays", "C1",
                 "--slots", "16", "--spec", "on",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--json", str(report),
                 "--instrumentation", str(inst_path)]) == 0
    out = capsys.readouterr().out
    assert "geomean speedup" in out
    assert "alloc memo" in out
    assert report.exists() and inst_path.exists()
    assert "\"workloads\"" in report.read_text()
    assert "\"artifact_hit_rate\"" in inst_path.read_text()


def test_paper_matrix_shape():
    configs = paper_matrix()
    assert len(configs) == 20
    assert len({config.name for config in configs}) == 20


def test_traceeval_annotations_resolve():
    # the BlockCostModel forward reference used to be undefined at
    # runtime; get_type_hints would raise NameError.
    import repro.system.traceeval as traceeval
    for name in dir(traceeval):
        obj = getattr(traceeval, name)
        if callable(obj) and getattr(obj, "__module__", "") == \
                "repro.system.traceeval":
            typing.get_type_hints(obj)


def test_prefix_mem_ops_is_freed_with_its_block():
    """The (loads, stores) memo and the cycle costs live on the block,
    so a long-lived process pins no block once its trace is gone."""
    import gc
    import weakref

    from repro.isa.instruction import Instruction
    from repro.sim.trace import BasicBlock
    from repro.system.costmodel import shared_cost_model
    from repro.system.costmodel import _prefix_mem_ops

    block = BasicBlock(0, 0x0040_0000, (
        Instruction("lw", rs=29, rt=8, imm=4),
        Instruction("sw", rs=29, rt=8, imm=8),
        Instruction("jr", rs=31)))
    assert _prefix_mem_ops(block, 2) == (1, 1)
    assert _prefix_mem_ops(block, 1) == (1, 0)
    cost = shared_cost_model(paper_system("C1", 16, False).timing) \
        .cost(block)
    assert (cost.loads, cost.stores) == (1, 1)
    assert len(block.costs) == 3
    restored = pickle.loads(pickle.dumps(block))
    assert restored.costs == {}
    freed = weakref.ref(block)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del block
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
