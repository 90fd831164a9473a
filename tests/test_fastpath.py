"""Differential tests for the block-compiled fast path.

The fast path (:mod:`repro.sim.fastpath`) must be *bit-identical* to the
per-instruction interpreter: same architectural state, same output, same
cycle counts and event statistics, same trace — for every workload in
the suite, for targeted corner-case kernels, and for the coupled
MIPS+DIM system including under forced mis-speculation and the loop
and dual-path configuration kinds.
"""

import pytest
from hypothesis import given, settings

from repro.asm import assemble
from repro.dim.params import DimParams
from repro.minic import compile_to_program
from repro.sim import CacheConfig, CacheHierarchy, Simulator, run_program
from repro.sim import memory as memory_module
from repro.sim.cpu import SimulationError
from repro.sim.memory import AlignmentError_
from repro.system import PAPER_SHAPES, paper_system
from repro.system.config import SystemSpec
from repro.system.coupled import CoupledSimulator, run_coupled
from repro.workloads import load_workload, workload_names
from tests.test_property_random_programs import programs, system_configs


def _assert_identical(program):
    """Run both engines over ``program`` and compare everything."""
    slow = run_program(program, collect_trace=True, fast=False)
    fast = run_program(program, collect_trace=True, fast=True)
    assert fast.exit_code == slow.exit_code
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats  # cycles, stalls, every event counter
    assert fast.trace.events == slow.trace.events
    assert [(b.start_pc, b.instructions)
            for b in fast.trace.table.blocks] == \
           [(b.start_pc, b.instructions)
            for b in slow.trace.table.blocks]
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()
    return slow


@pytest.mark.parametrize("name", workload_names())
def test_fastpath_matches_interpreter_on_workload(name):
    slow = run_program(load_workload(name), collect_trace=True, fast=False)
    fast = run_program(load_workload(name), collect_trace=True, fast=True)
    assert fast.exit_code == slow.exit_code
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats
    assert fast.trace.events == slow.trace.events


# Ops the workloads exercise lightly: back-to-back mult/mfhi (HI/LO
# stall), div/mfhi, negative arithmetic shifts, variable shifts,
# sign-extending sub-word loads, sub-word stores, slt/sltiu corners,
# jal/jr/jalr call chains.
CORNER_KERNEL = """
        .data
buf:    .space 64
        .text
__start:
        li   $s0, -7
        li   $s1, 3
        mult $s0, $s1
        mfhi $t0                 # immediate HI read: stalls
        mflo $t1
        div  $s0, $s1
        mfhi $t2                 # remainder
        mflo $t3                 # quotient
        sra  $t4, $s0, 2
        srav $t5, $s0, $s1
        sllv $t6, $s1, $s0
        sltiu $t7, $s0, 5
        slti  $s2, $s0, 5
        la   $a0, buf
        sw   $s0, 0($a0)
        lb   $t8, 0($a0)         # sign-extended byte of -7
        lbu  $t9, 0($a0)
        sh   $s0, 4($a0)
        lh   $s3, 4($a0)
        lhu  $s4, 4($a0)
        jal  leaf
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
leaf:
        addu $v0, $t8, $t2
        addu $v0, $v0, $s3
        jalr $s5, $ra            # return via jalr to cover its encoding
"""


def test_fastpath_corner_operations():
    program = assemble(CORNER_KERNEL)
    result = _assert_identical(program)
    assert result.stats.hilo_stalls > 0


def test_fastpath_branch_variants():
    program = compile_to_program("""
    int main() {
        int i; int acc = 0;
        for (i = -20; i < 20; i++) {
            if (i > 0) { acc += i; }
            if (i <= 3) { acc ^= 5; }
            if (i >= -2) { acc <<= 1; }
            if (i < 7) { acc -= 2; }
            if (i == 11) { acc |= 256; }
            if (i != -11) { acc++; }
            acc &= 0xffffff;
        }
        print_int(acc);
        return 0;
    }
    """)
    _assert_identical(program)


def test_fastpath_recursion_and_calls():
    program = compile_to_program("""
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() {
        print_int(fib(14));
        return 0;
    }
    """)
    _assert_identical(program)


# A loop whose one store targets ``buf`` for 50 trips, then ``__start``:
# by then the array runs the loop body, so the .text store is an
# array-covered one.
ARRAY_TEXT_STORE = """
        .data
buf:    .space 16
        .text
__start:
        la    $s1, buf
        la    $s2, __start
        subu  $s2, $s2, $s1      # delta: buf + delta == __start
        li    $s0, 0
        li    $s3, 100
loop:
        sltiu $t2, $s0, 50
        xori  $t2, $t2, 1        # 1 once i >= 50
        subu  $t3, $zero, $t2    # all ones once i >= 50
        and   $t3, $t3, $s2
        addu  $t4, $s1, $t3
        sw    $zero, 0($t4)
        addiu $s0, $s0, 1
        bne   $s0, $s3, loop
        li    $v0, 10
        syscall
"""


def test_fastpath_store_to_text_asserts():
    program = assemble("""
    __start:
        la   $t0, __start
        sw   $zero, 0($t0)
        li   $v0, 10
        syscall
    """)
    with pytest.raises(SimulationError, match="self-modifying"):
        run_program(program, fast=True)
    # the interpreter tolerates it (stale decode cache, out of scope)
    assert run_program(program, fast=False).exit_code == 0

    # a fast coupled run guards array-covered stores the same way
    program = assemble(ARRAY_TEXT_STORE)
    config = paper_system("C3", 64, False)
    coupled = CoupledSimulator(program, config, fast=True)
    with pytest.raises(SimulationError, match="self-modifying") as info:
        coupled.run()
    assert info.traceback[-1].frame.code.raw.co_filename.startswith(
        "<fastprefix")
    assert coupled.engine.stats.array_executions > 0
    # the interpreted coupled run tolerates it, as the core does
    assert run_coupled(program, config, fast=False).exit_code == 0


def test_fastpath_falls_back_when_caches_configured():
    program = compile_to_program("""
    int main() { print_int(42); return 0; }
    """)
    caches = CacheHierarchy.build(icache=CacheConfig(),
                                  dcache=CacheConfig())
    sim = Simulator(program, caches=caches, fast=True)
    assert sim._block_compiler is None  # cache timing interprets
    assert sim.run().output == "42"


def test_fastpath_shares_one_decode_cache():
    program = compile_to_program("""
    int main() { print_int(7); return 0; }
    """)
    a = Simulator(program, fast=False)
    a.run()
    b = Simulator(program, fast=True)
    assert a._decoded is b._decoded  # hoisted onto the Program
    assert b._decoded is program.decode_cache
    assert len(program.decode_cache) > 0


BRANCHY = """
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
"""


TABLES = """
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
"""

#: the dynflow configuration of ``test_system_equivalence.CONFIGS``.
DYNFLOW = SystemSpec.of(PAPER_SHAPES["C2"], DimParams(
    cache_slots=16, speculation=True, dynflow_mode="both")).build()


def _assert_coupled_identical(program, config):
    """Coupled system, fast vs slow: every result field and memory."""
    slow = run_coupled(program, config, fast=False)
    fast = run_coupled(program, config, fast=True)
    assert fast.exit_code == slow.exit_code
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats
    assert fast.dim_stats == slow.dim_stats
    assert fast.cache_lookups == slow.cache_lookups
    assert fast.cache_hits == slow.cache_hits
    assert fast.predictor_accuracy == slow.predictor_accuracy
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()
    return slow


@pytest.mark.parametrize("spec", [False, True])
def test_fast_coupled_matches_interpreter(spec):
    """Coupled system: fast vs slow, including forced mis-speculation."""
    program = compile_to_program(BRANCHY)
    slow = _assert_coupled_identical(program, paper_system("C3", 64, spec))
    if spec:  # data-dependent branches force real mis-speculations
        assert slow.dim_stats.misspeculations > 0


@pytest.mark.parametrize("source", [BRANCHY, TABLES],
                         ids=["branchy", "tables"])
def test_fast_coupled_matches_interpreter_on_dynflow(source):
    """The loop and dual kinds run their prefixes compiled too."""
    slow = _assert_coupled_identical(compile_to_program(source), DYNFLOW)
    assert slow.dim_stats.loop_executions > 0
    assert slow.dim_stats.dual_executions > 0


@pytest.mark.parametrize("name", ["crc", "sha", "quicksort"])
def test_fast_coupled_matches_interpreter_on_workloads(name):
    _assert_coupled_identical(load_workload(name),
                              paper_system("C2", 64, True))


@settings(max_examples=10, deadline=None)
@given(programs(), system_configs())
def test_fastpath_matches_interpreter_on_random_programs(source, config):
    """Random mini-C programs, plain and coupled: every layer above the
    simulator runs the compiled engine, so it must agree with the
    reference wherever the property generator reaches."""
    program = compile_to_program(source)
    _assert_identical(program)
    _assert_coupled_identical(program, config)


# ----------------------------------------------------------------------
# Word views: aligned lw/sw go straight to the page's memoryview.
# ----------------------------------------------------------------------
FRESH_PAGE = """
__start:
        lui  $t0, 0x2000         # 0x20000000: no page there yet
        li   $t1, 0x12345678
        sw   $t1, 8($t0)         # allocates the page (and its view)
        lw   $t2, 8($t0)         # same block: reads through the view
        lw   $t3, 0x1000($t0)    # untouched page
        move $a0, $t2
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"""


def test_fastpath_word_views_on_fresh_and_untouched_pages():
    program = assemble(FRESH_PAGE)
    sim = Simulator(program, fast=True)
    engine = sim._block_compiler  # run() drops it at program exit
    result = sim.run()
    # the entry block ran the store and both loads in one closure
    assert engine._term_pc[program.entry] > program.entry + 16
    assert result.output == str(0x12345678)
    assert result.registers[10] == 0x12345678  # $t2
    assert result.registers[11] == 0           # $t3
    assert 0x20000 in result.memory.words
    assert 0x20001 not in result.memory.words  # a read allocates nothing
    _assert_identical(program)


@pytest.mark.parametrize("access", ["lw $t1, 2($t0)", "sw $t1, 2($t0)"],
                         ids=["lw", "sw"])
def test_fastpath_misaligned_word_access_raises_like_interpreter(access):
    program = assemble(f"""
            .data
    buf:    .space 16
            .text
    __start:
            la   $t0, buf
            {access}
            li   $v0, 10
            syscall
    """)
    with pytest.raises(AlignmentError_) as slow:
        run_program(program, fast=False)
    with pytest.raises(AlignmentError_) as fast:
        run_program(program, fast=True)
    assert str(fast.value) == str(slow.value)


def test_fastpath_without_word_views_is_bit_identical(monkeypatch):
    """The big-endian route: no views, every word goes through calls."""
    slow = run_program(load_workload("crc"), collect_trace=True, fast=False)
    monkeypatch.setattr(memory_module, "WORD_VIEWS", False)
    fast = run_program(load_workload("crc"), collect_trace=True, fast=True)
    assert fast.memory.words == {}
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats
    assert fast.trace.events == slow.trace.events
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()
