"""The repository's central invariants:

1. The coupled MIPS+DIM+array simulator produces *bit-identical*
   architectural state and program output to the plain MIPS core.
2. The trace-driven evaluator produces *cycle-identical* results to the
   coupled simulator, for every array shape and DIM policy.
3. ``repro.api.run`` executes the program once and replays its trace;
   the coupled simulator is its transparency oracle: the accelerated
   run it reports has the coupled run's exit code, output, registers,
   memory, counters and metrics, and its baseline is what
   ``baseline_metrics`` computes from the trace.
"""

import dataclasses

import pytest

from repro import api
from repro.asm import assemble
from repro.dim.params import DimParams
from repro.minic import compile_to_program
from repro.sim import run_program
from repro.system import (
    PAPER_SHAPES,
    CoupledSimulator,
    baseline_metrics,
    evaluate_trace,
    paper_system,
)
from repro.system.config import SystemSpec
from repro.system import traceeval
from repro.system.coupled import run_coupled
from repro.workloads import load_workload

# A program mix designed to stress every DIM mechanism: biased loops
# (speculation), data-dependent branches (mis-speculation), multiplies
# (HI/LO context), divides (unsupported mid-block), memory traffic,
# calls and recursion (jal/jr boundaries).
PROGRAMS = {
    "loops_and_tables": """
    unsigned tab[64];
    int main() {
        int i; int j;
        unsigned acc = 1;
        for (i = 0; i < 64; i++) { tab[i] = i * 2654435761; }
        for (j = 0; j < 20; j++) {
            for (i = 0; i < 64; i++) {
                acc = acc ^ (tab[i] + (acc << 3)) + (acc >> 5);
                tab[i] = acc;
            }
        }
        print_int(acc & 0x7fffffff);
        return 0;
    }
    """,
    "branchy": """
    int main() {
        int i;
        int odd = 0;
        int even = 0;
        unsigned seed = 77;
        for (i = 0; i < 3000; i++) {
            seed = seed * 1103515245 + 12345;
            if ((seed >> 16) & 1) { odd++; }
            else {
                if ((seed >> 17) & 1) { even += 2; } else { even++; }
            }
        }
        print_int(odd);
        print_char(' ');
        print_int(even);
        return 0;
    }
    """,
    "mult_div_mix": """
    int main() {
        int i;
        int acc = 1;
        for (i = 1; i < 500; i++) {
            acc = acc + i * i - (acc / i) + (acc % 7);
        }
        print_int(acc);
        return 0;
    }
    """,
    "recursion": """
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() {
        print_int(fib(15));
        return 0;
    }
    """,
    "phase_change": """
    // branch direction flips halfway: exercises flush-and-rebuild
    int main() {
        int i;
        int a = 0;
        for (i = 0; i < 2000; i++) {
            if (i < 1000) { a += 1; } else { a += 3; }
        }
        print_int(a);
        return 0;
    }
    """,
}

CONFIGS = [
    paper_system("C1", 16, False),
    paper_system("C1", 16, True),
    paper_system("C2", 64, True),
    paper_system("C3", 64, False),
    paper_system("C3", 256, True),
    paper_system("ideal", speculation=True),
    SystemSpec.of(PAPER_SHAPES["C2"], DimParams(
        cache_slots=16, speculation=True, dynflow_mode="both")).build(),
    # no reconfiguration overlap: every execution stalls, so a stall
    # charged per loop trip instead of per execution shows
    SystemSpec.of(PAPER_SHAPES["C1"], DimParams(
        cache_slots=16, speculation=True, dynflow_mode="loop",
        reconfig_overlap=0)).build(),
]


@pytest.fixture(scope="module")
def plain_runs():
    runs = {}
    for name, source in PROGRAMS.items():
        program = compile_to_program(source)
        runs[name] = (program, run_program(program, collect_trace=True))
    return runs


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("config_idx", range(len(CONFIGS)))
def test_coupled_is_bit_exact_and_trace_is_cycle_exact(plain_runs, name,
                                                       config_idx):
    config = CONFIGS[config_idx]
    program, plain = plain_runs[name]
    coupled = run_coupled(program, config)
    # --- architectural equivalence -----------------------------------
    assert coupled.output == plain.output
    assert coupled.exit_code == plain.exit_code
    assert coupled.registers == plain.registers
    assert coupled.memory.snapshot_pages() == plain.memory.snapshot_pages()
    assert coupled.stats.instructions == plain.stats.instructions
    assert coupled.stats.loads == plain.stats.loads
    assert coupled.stats.stores == plain.stats.stores
    # the array must actually have been used (not a vacuous pass)
    assert coupled.dim_stats.array_executions > 0
    # accelerated execution is never slower than 1.05x the plain core
    assert coupled.stats.cycles <= plain.stats.cycles * 1.05
    # --- trace-eval equivalence ---------------------------------------
    metrics = evaluate_trace(plain.trace, config)
    assert metrics.cycles == coupled.stats.cycles
    assert metrics.instructions == coupled.stats.instructions
    assert metrics.fetches == coupled.stats.fetches
    assert metrics.loads == coupled.stats.loads
    assert metrics.stores == coupled.stats.stores
    dim_t, dim_c = metrics.dim, coupled.dim_stats
    assert dim_t.array_executions == dim_c.array_executions
    assert dim_t.array_instructions == dim_c.array_instructions
    assert dim_t.misspeculations == dim_c.misspeculations
    assert dim_t.flushes == dim_c.flushes
    assert dim_t.translations == dim_c.translations
    assert metrics.cache_hits == coupled.cache_hits
    assert metrics.cache_lookups == coupled.cache_lookups


def _assert_run_matches_the_coupled_oracle(program, config):
    """``api.run`` keeps no second execution to compare outputs with,
    so its transparency is checked here, against the coupled run."""
    comparison = api.run(program, config=config)
    accelerated = comparison.accelerated
    coupled = run_coupled(program, config)
    assert accelerated.exit_code == coupled.exit_code
    assert accelerated.output == coupled.output
    assert accelerated.registers == coupled.registers
    assert accelerated.memory.snapshot_pages() \
        == coupled.memory.snapshot_pages()
    # the DIM, rcache and predictor numbers `repro run` prints
    assert comparison.metrics is accelerated.metrics
    assert dataclasses.asdict(comparison.metrics) \
        == dataclasses.asdict(coupled.metrics)
    # every RunStats field, cycles and instructions among them
    assert accelerated.stats == coupled.stats
    assert dataclasses.asdict(comparison.baseline) == dataclasses.asdict(
        baseline_metrics(comparison.plain.trace, config.timing))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("config_idx", range(len(CONFIGS)))
def test_run_metrics_match_the_event_oracles(plain_runs, name,
                                             config_idx):
    program, _ = plain_runs[name]
    _assert_run_matches_the_coupled_oracle(program, CONFIGS[config_idx])


#: a biased branch whose predicted successor starts with a divide,
#: which the array cannot place
REPROCESS = """
        .text
main:   li    $t0, 0
        li    $t4, 300
        li    $t5, 7
loop:   addiu $t0, $t0, 1
        addu  $t1, $t0, $t0
        xor   $t2, $t1, $t0
        addu  $t3, $t2, $t1
        bne   $t0, $t4, body
        li    $v0, 10
        syscall
body:   div   $t3, $t5
        mflo  $t6
        addu  $t7, $t7, $t6
        j     loop
"""


def test_reprocess_exits_match_the_coupled_oracle():
    """A speculative configuration may end in a block it covers none
    of: each execution commits the merged chain and the core looks that
    block up afresh (a linear configuration's exit code 0)."""
    program = assemble(REPROCESS)
    config = paper_system("C1", 16, True)
    _assert_run_matches_the_coupled_oracle(program, config)
    trace = run_program(program, collect_trace=True).trace
    _, engine = traceeval._replay(trace, config, "", None)
    cached = [engine.cache.peek(block.start_pc)
              for block in trace.table.blocks]
    assert any(cfg is not None and cfg.blocks[-1].covered == 0
               for cfg in cached)
    assert engine.stats.array_executions > 0


#: the three ``repro run`` invocations perfbench's cli-run times
CLI_RUN_PAIRS = [("crc", "C1", 16, False), ("sha", "C2", 64, True),
                 ("gsm_d", "C3", 256, True)]


@pytest.mark.parametrize("workload,array,slots,spec", CLI_RUN_PAIRS)
def test_run_matches_the_coupled_oracle_on_the_cli_run_pairs(
        workload, array, slots, spec):
    _assert_run_matches_the_coupled_oracle(
        load_workload(workload), paper_system(array, slots, spec))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_baseline_metrics_match_simulator(plain_runs, name):
    _, plain = plain_runs[name]
    metrics = baseline_metrics(plain.trace)
    assert metrics.cycles == plain.stats.cycles
    assert metrics.instructions == plain.stats.instructions
    assert metrics.fetches == plain.stats.fetches
    assert metrics.loads == plain.stats.loads
    assert metrics.stores == plain.stats.stores
    assert metrics.taken_transfers == plain.stats.taken_transfers
    assert metrics.load_use_stalls == plain.stats.load_use_stalls
    assert metrics.hilo_stalls == plain.stats.hilo_stalls


def test_phase_change_causes_flush_and_recovers(plain_runs):
    program, plain = plain_runs["phase_change"]
    config = paper_system("C3", 64, True)
    coupled = run_coupled(program, config)
    assert coupled.dim_stats.misspeculations > 0
    assert coupled.dim_stats.flushes > 0
    assert coupled.output == plain.output
    assert coupled.stats.cycles < plain.stats.cycles


def test_speculation_beats_no_speculation_on_biased_loops(plain_runs):
    _, plain = plain_runs["loops_and_tables"]
    nospec = evaluate_trace(plain.trace, paper_system("C3", 64, False))
    spec = evaluate_trace(plain.trace, paper_system("C3", 64, True))
    assert spec.cycles < nospec.cycles


def test_coupled_simulator_object_api():
    program = compile_to_program(PROGRAMS["recursion"])
    sim = CoupledSimulator(program, paper_system("C2", 64, True))
    result = sim.run()
    assert result.exit_code == 0
    assert result.predictor_accuracy > 0.5
    assert result.cache_hits <= result.cache_lookups
