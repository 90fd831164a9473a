"""Ablation studies on DIM design choices the paper fixes implicitly.

- speculation depth (the paper picks "up to three basic blocks");
- ALU chaining per cycle (the paper says "more than one" simple op per
  processor cycle; we sweep 1..4 — 1 reproduces the paper's averages);
- reconfiguration-cache replacement (the paper uses FIFO; LRU is the
  obvious alternative);
- minimum cached block length (the paper caches only >3 instructions).
"""

from dataclasses import replace

import pytest

from repro.analysis import format_table
from repro.system import paper_system, replay_matrix
from repro.system.colreplay import evaluate_trace_columnar
from repro.system.sweep import matrix_suites

from conftest import artifact_cache

#: a balanced subset: 2 dataflow, 2 mid, 2 control, 2 cache-sensitive.
SUBSET = ("rijndael_e", "sha", "jpeg_e", "susan_c", "quicksort",
          "rawaudio_d", "patricia", "stringsearch")


def geomean_speedups(traces, configs, names=SUBSET):
    """Geomean speedup per configuration, via the matrix sweep engine.

    One call evaluates a whole ablation series: configurations share
    per-workload columnar contexts and per-cell disk artifacts, and the
    metrics are identical to independent ``evaluate_trace`` calls.
    """
    subset = {name: traces[name] for name in names}
    rows = replay_matrix(subset, configs, cache=artifact_cache())
    return [suite.geomean_speedup
            for suite in matrix_suites(names, configs, rows)]


def test_ablation_speculation_depth(benchmark, traces, capsys):
    depths = (0, 1, 2, 3, 4)
    configs = [paper_system("C3", 64, speculation=depth > 0)
               .with_dim(max_spec_depth=depth) for depth in depths]
    values = dict(zip(depths,
                      geomean_speedups(traces, configs)))
    rows = [[depth, values[depth]] for depth in depths]
    table = format_table(["spec depth (blocks)", "geomean speedup"], rows,
                         title="Ablation — speculation depth at C#3 / 64")
    with capsys.disabled():
        print("\n" + table + "\n")
    assert values[1] > values[0]          # first level pays the most
    assert values[3] >= values[1]         # deeper never hurts on average
    gain_1 = values[1] - values[0]
    gain_4 = values[4] - values[3]
    assert gain_1 > gain_4                # diminishing returns
    config = paper_system("C3", 64, True)
    benchmark.pedantic(
        lambda: evaluate_trace_columnar(traces["quicksort"], config),
        rounds=1, iterations=1)


def test_ablation_alu_chain(benchmark, traces, capsys):
    chains = (1, 2, 3, 4)
    base = paper_system("C3", 64, True)
    configs = [replace(base, shape=replace(base.shape, alu_chain=chain))
               for chain in chains]
    values = dict(zip(chains,
                      geomean_speedups(traces, configs)))
    rows = [[chain, values[chain]] for chain in chains]
    table = format_table(["ALU lines per cycle", "geomean speedup"], rows,
                         title="Ablation — ALU chaining (default: 2)")
    with capsys.disabled():
        print("\n" + table + "\n")
    assert values[1] < values[2] < values[3] <= values[4] * 1.001
    config = paper_system("C1", 64, True)
    benchmark.pedantic(
        lambda: evaluate_trace_columnar(traces["sha"], config),
        rounds=1, iterations=1)


def test_ablation_cache_policy(benchmark, traces, capsys):
    sensitive = ("rijndael_e", "patricia", "stringsearch", "jpeg_e")
    points = [(slots, policy) for slots in (8, 16, 32)
              for policy in ("fifo", "lru")]
    configs = [paper_system("C3", slots, True)
               .with_dim(cache_policy=policy) for slots, policy in points]
    values = dict(zip(points, geomean_speedups(traces, configs,
                                               names=sensitive)))
    rows = [[slots, values[(slots, "fifo")], values[(slots, "lru")]]
            for slots in (8, 16, 32)]
    table = format_table(["#slots", "FIFO (paper)", "LRU"], rows,
                         title="Ablation — reconfiguration-cache "
                               "replacement (cache-sensitive workloads)")
    with capsys.disabled():
        print("\n" + table + "\n")
    # both policies converge once the working set fits
    assert abs(values[(32, "fifo")] - values[(32, "lru")]) \
        / values[(32, "lru")] < 0.25
    config = paper_system("C3", 8, True).with_dim(cache_policy="lru")
    benchmark.pedantic(
        lambda: evaluate_trace_columnar(traces["patricia"], config),
        rounds=1, iterations=1)


def test_ablation_min_block_length(benchmark, traces, capsys):
    lengths = (2, 4, 6, 8, 12)
    configs = [paper_system("C3", 64, True)
               .with_dim(min_block_instructions=min_len)
               for min_len in lengths]
    values = dict(zip(lengths,
                      geomean_speedups(traces, configs)))
    rows = [[min_len, values[min_len]] for min_len in lengths]
    table = format_table(["min instructions", "geomean speedup"], rows,
                         title="Ablation — minimum cached block length "
                               "(paper: >3)")
    with capsys.disabled():
        print("\n" + table + "\n")
    # tiny blocks are still worth caching relative to not caching them:
    # raising the threshold should never help much
    assert values[2] >= values[12] * 0.98
    config = paper_system("C3", 64, True).with_dim(
        min_block_instructions=12)
    benchmark.pedantic(
        lambda: evaluate_trace_columnar(traces["rawaudio_d"], config),
        rounds=1, iterations=1)
