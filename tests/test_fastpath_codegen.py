"""The compiled blocks' folding and deferred counters stay exact.

:mod:`repro.sim.fastpath` folds what a block can compute at compile
time (``$zero`` reads, registers holding a known constant, ``lui``/``ori``
pairs), adds its static counters through one packed integer that
``Simulator.stats`` folds back in on every read, and leaves ``sim.pc``
and the instruction budget to the driver.  These tests run seeded random
assembly — every ALU and shift form over a small register pool that
includes ``$zero``, constants of every width, sub-word and word memory
traffic, HI/LO, ``jal``/``jalr`` (also with the link register as the
target) and data-dependent branches — on the interpreter and the fast
path, plain and coupled, and compare everything.
"""

import random

import pytest

from repro.asm import assemble
from repro.sim import Simulator, run_program
from repro.sim.cpu import SimulationError
from repro.sim.memory import AlignmentError_
from repro.sim import fastpath
from repro.sim.fastpath import FastPath
from repro.system import paper_system
from repro.system.coupled import run_coupled

_POOL = ["$zero", "$t0", "$t1", "$t2", "$t3"]
_R_OPS = ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
          "sllv", "srlv", "srav", "add", "sub"]
_I_OPS = ["addiu", "andi", "ori", "xori", "slti", "sltiu", "addi"]
_CONSTANTS = [0, 1, -1, 7, 0x7FFF, -0x8000, 0xFFFF, 0x10000, 0x12345678,
              -0x12345678, 0x80000000, 0xFFFF0000]


def _op(rng: random.Random) -> str:
    reg = lambda: rng.choice(_POOL)  # noqa: E731
    kind = rng.randrange(9)
    if kind == 0:
        return f"li {reg()}, {rng.choice(_CONSTANTS)}"
    if kind == 1:
        target = reg()
        return (f"lui {target}, {rng.randrange(0x10000)}\n"
                f"        ori {target}, {target}, {rng.randrange(0x10000)}")
    if kind == 2:
        return f"{rng.choice(_R_OPS)} {reg()}, {reg()}, {reg()}"
    if kind == 3:
        imm = rng.randrange(0x10000) if rng.random() < 0.5 \
            else rng.randrange(-0x8000, 0x8000)
        op = rng.choice(_I_OPS)
        if op in ("andi", "ori", "xori"):
            imm &= 0xFFFF
        return f"{op} {reg()}, {reg()}, {imm}"
    if kind == 4:
        return (f"{rng.choice(['sll', 'srl', 'sra'])} {reg()}, {reg()}, "
                f"{rng.randrange(32)}")
    if kind == 5:
        word = 4 * rng.randrange(16)
        return rng.choice([f"sw {reg()}, {word}($s0)",
                           f"lw {reg()}, {word}($s0)",
                           f"sb {reg()}, {rng.randrange(64)}($s0)",
                           f"lb {reg()}, {rng.randrange(64)}($s0)",
                           f"lbu {reg()}, {rng.randrange(64)}($s0)",
                           f"sh {reg()}, {2 * rng.randrange(32)}($s0)",
                           f"lh {reg()}, {2 * rng.randrange(32)}($s0)",
                           f"lhu {reg()}, {2 * rng.randrange(32)}($s0)"])
    if kind == 6:
        return (f"{rng.choice(['mult', 'multu', 'div', 'divu'])} "
                f"{reg()}, {reg()}\n"
                f"        {rng.choice(['mfhi', 'mflo'])} {reg()}")
    if kind == 7:
        # ``jalr $t9, $t9`` links first, so it jumps to the next line
        label = f"next{rng.getrandbits(48)}"
        return rng.choice(["jal leaf", "la $t9, leaf\n        jalr $t9",
                           f"la $t9, {label}\n        jalr $t9, $t9\n"
                           f"{label}:"])
    return f"mthi {reg()}\n        mtlo {reg()}"


def _program(seed: int) -> str:
    rng = random.Random(seed)
    lines = []
    for block in range(6):
        lines += [f"        {_op(rng)}" for _ in range(rng.randrange(1, 9))]
        branch = rng.choice(["beq", "bne", "blez", "bgtz", "bltz", "bgez"])
        operands = f"{rng.choice(_POOL)}, {rng.choice(_POOL)}" \
            if branch in ("beq", "bne") else rng.choice(_POOL)
        lines.append(f"        {branch} {operands}, skip{block}")
        lines += [f"        {_op(rng)}" for _ in range(rng.randrange(0, 4))]
        lines.append(f"skip{block}:")
    body = "\n".join(lines)
    return f"""
        .data
buf:    .space 64
        .text
__start:
        la   $s0, buf
        li   $s1, 3
loop:
{body}
        addiu $s1, $s1, -1
        bnez $s1, loop
        xor  $a0, $t0, $t1
        xor  $a0, $a0, $t2
        xor  $a0, $a0, $t3
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
leaf:
        addu $t0, $t0, $t1
        jr   $ra
"""


@pytest.mark.parametrize("seed", range(40))
def test_random_blocks_match_interpreter(seed):
    program = assemble(_program(seed))
    slow = run_program(program, collect_trace=True)
    fast = run_program(program, collect_trace=True, fast=True)
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats
    assert fast.trace.events == slow.trace.events
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()


@pytest.mark.parametrize("seed", range(40, 52))
def test_random_array_prefixes_match_interpreter(seed):
    program = assemble(_program(seed))
    config = paper_system("C3", 16, True)
    slow = run_coupled(program, config)
    fast = run_coupled(program, config, fast=True)
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats
    assert fast.dim_stats == slow.dim_stats
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()


def test_stats_are_exact_after_every_block():
    """``sim.stats`` folds the packed counters in whenever it is read:
    block by block, the fast path's counters equal the interpreter's."""
    program = assemble(_program(7))
    slow = Simulator(program)
    fast = Simulator(program, fast=True)
    while slow.exit_code is None:
        outcome = slow.step_block()
        fast_outcome = fast.step_block()
        assert fast_outcome == outcome
        assert fast.stats == slow.stats
        assert fast.pc == slow.pc


def test_folded_block_source_reads_no_zero_register(monkeypatch):
    program = assemble("""
    __start:
        lui  $t0, 0x1001
        ori  $t0, $t0, 0x20
        addiu $t1, $zero, 5
        addu $t2, $t1, $zero
        sw   $t1, 0($t0)
        li   $v0, 10
        syscall
    """)
    sources = []
    compile_ = fastpath._compile

    def capture(source, name):
        sources.append(source)
        return compile_(source, name)

    monkeypatch.setattr(fastpath, "_compile", capture)
    FastPath(Simulator(program, fast=True)).compile_block(program.entry)
    source, = sources
    assert "regs[0]" not in source
    assert f"regs[8] = {0x10010000}\n" not in source  # lui half dropped
    assert f"regs[8] = {0x10010020}\n" in source
    assert f"_a = {0x10010020}\n" in source
    assert "regs[10] = 5\n" in source


def test_only_constant_writes_are_dropped():
    """A load whose register the next instruction overwrites with a
    constant still runs: it can fault."""
    program = assemble("""
            .data
    buf:    .space 8
            .text
    __start:
            la   $s0, buf
            lw   $t0, 2($s0)
            lui  $t0, 1
            li   $v0, 10
            syscall
    """)
    with pytest.raises(AlignmentError_) as slow:
        run_program(program)
    with pytest.raises(AlignmentError_) as fast:
        run_program(program, fast=True)
    assert str(fast.value) == str(slow.value)


def test_budget_overrun_leaves_pc_after_the_block():
    program = assemble("""
    __start:
        addiu $t0, $t0, 1
        addiu $t0, $t0, 1
        b     __start
    """)
    sim = Simulator(program, fast=True, max_instructions=10)
    with pytest.raises(SimulationError,
                       match="budget exceeded at pc 0x00400000"):
        sim.run()
    # the fourth block overran: its counters are in, pc is past it
    assert sim.stats.instructions == 12
    assert sim.pc == program.entry
