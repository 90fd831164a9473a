"""Infrastructure throughput: how fast the simulators themselves run.

Not a paper experiment — this is the bench that keeps the reproduction
usable.  It reports instructions/second for the functional core (both
the per-instruction interpreter and the block-compiled fast path of
:mod:`repro.sim.fastpath`), the coupled MIPS+DIM system (interpreted,
and with its core blocks and array prefixes block-compiled), and
events/second for the trace evaluator (the ratio between the last two is
why the Table 2 sweep is tractable).

Every measured rate is also written to ``BENCH_throughput.json`` next to
this file, so the performance trajectory is tracked PR-over-PR in
machine-readable form.
"""

import json
import time
from pathlib import Path

import pytest

from repro.minic import compile_to_program
from repro.sim import Simulator, run_program
from repro.system import evaluate_trace, paper_system
from repro.system.coupled import CoupledSimulator

KERNEL = """
unsigned a[64];
int main() {
    int i; int p;
    unsigned acc = 1;
    for (p = 0; p < 30; p++) {
        for (i = 0; i < 64; i++) {
            acc = acc * 31 + (a[i] ^ (acc >> 5));
            a[i] = acc;
        }
    }
    print_int(acc & 0xffff);
    return 0;
}
"""

#: rates recorded by the tests below; dumped to BENCH_throughput.json.
RATES = {}


@pytest.fixture(scope="module")
def kernel():
    program = compile_to_program(KERNEL)
    plain = run_program(program, collect_trace=True, fast=False)
    return program, plain


@pytest.fixture(scope="module", autouse=True)
def _emit_rates_json():
    """Write the machine-readable throughput record after the module."""
    yield
    if RATES:
        path = Path(__file__).with_name("BENCH_throughput.json")
        path.write_text(json.dumps(RATES, indent=2, sort_keys=True) + "\n")


def test_throughput_functional_core(benchmark, kernel, capsys):
    program, plain = kernel
    result = benchmark.pedantic(
        lambda: Simulator(program, fast=False).run(), rounds=3,
        iterations=1)
    assert result.output == plain.output
    rate = plain.stats.instructions / benchmark.stats.stats.mean
    RATES["functional_interpreter_instr_per_s"] = rate
    with capsys.disabled():
        print(f"\nfunctional core: {rate / 1e3:.0f}k instructions/s")
    assert rate > 30_000


def test_throughput_fast_functional_core(benchmark, kernel, capsys):
    program, plain = kernel
    # Warm the program-level factory cache so the measurement reflects
    # steady-state block-compiled execution, not first-visit codegen.
    warm = Simulator(program, fast=True).run()
    assert warm.output == plain.output
    assert warm.stats == plain.stats
    result = benchmark.pedantic(
        lambda: Simulator(program, fast=True).run(), rounds=3, iterations=1)
    assert result.output == plain.output
    assert result.stats.cycles == plain.stats.cycles
    rate = plain.stats.instructions / benchmark.stats.stats.mean
    RATES["functional_fastpath_instr_per_s"] = rate
    with capsys.disabled():
        print(f"\nfast path: {rate / 1e3:.0f}k instructions/s")
    # 5x the interpreter's floor: the fast path must clear it comfortably.
    assert rate > 150_000


def test_fastpath_speedup_over_interpreter(kernel, capsys):
    """The tentpole acceptance bar: >=5x functional throughput."""
    program, plain = kernel

    def best_of(factory, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            result = factory().run()
            best = min(best, time.perf_counter() - start)
            assert result.output == plain.output
        return best

    Simulator(program, fast=True).run()  # warm the factory cache
    slow = best_of(lambda: Simulator(program, fast=False))
    fast = best_of(lambda: Simulator(program, fast=True))
    ratio = slow / fast
    RATES["fastpath_speedup_over_interpreter"] = ratio
    with capsys.disabled():
        print(f"\nfast path speedup: {ratio:.1f}x over the interpreter")
    assert ratio >= 5.0


def test_throughput_coupled_system(benchmark, kernel, capsys):
    program, plain = kernel
    config = paper_system("C3", 64, True)
    result = benchmark.pedantic(
        lambda: CoupledSimulator(program, config, fast=False).run(),
        rounds=3, iterations=1)
    assert result.output == plain.output
    rate = plain.stats.instructions / benchmark.stats.stats.mean
    RATES["coupled_instr_per_s"] = rate
    with capsys.disabled():
        print(f"\ncoupled MIPS+DIM: {rate / 1e3:.0f}k committed "
              "instructions/s")
    assert rate > 30_000


def test_throughput_fast_coupled_system(benchmark, kernel, capsys):
    program, plain = kernel
    config = paper_system("C3", 64, True)
    # Warm the program-level factory cache (core blocks and array
    # prefixes alike), as for the fast functional core.
    warm = CoupledSimulator(program, config, fast=False).run()
    assert CoupledSimulator(program, config, fast=True).run().stats \
        == warm.stats
    result = benchmark.pedantic(
        lambda: CoupledSimulator(program, config, fast=True).run(),
        rounds=3, iterations=1)
    assert result.output == plain.output
    assert result.stats == warm.stats
    rate = plain.stats.instructions / benchmark.stats.stats.mean
    RATES["coupled_fast_instr_per_s"] = rate
    with capsys.disabled():
        print(f"\nfast coupled MIPS+DIM: {rate / 1e3:.0f}k committed "
              "instructions/s")
    # 5x the interpreted coupled floor, as for the functional core.
    assert rate > 150_000


def test_throughput_trace_evaluator(benchmark, kernel, capsys):
    _, plain = kernel
    config = paper_system("C3", 64, True)
    benchmark.pedantic(lambda: evaluate_trace(plain.trace, config),
                       rounds=5, iterations=1)
    events = len(plain.trace.events)
    rate = events / benchmark.stats.stats.mean
    instr_rate = plain.stats.instructions / benchmark.stats.stats.mean
    RATES["traceeval_events_per_s"] = rate
    RATES["traceeval_equivalent_instr_per_s"] = instr_rate
    with capsys.disabled():
        print(f"\ntrace evaluator: {rate / 1e3:.0f}k events/s "
              f"(~{instr_rate / 1e6:.1f}M instructions/s equivalent)")
    assert rate > 10_000
