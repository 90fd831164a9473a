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
path, and compare everything.  On the MIPS+DIM system they compare the
production route (a block-compiled traced run plus the replay of its
trace) with the interpreted coupled simulator.
"""

import dataclasses
import random

import pytest

from repro.asm import assemble
from repro.sim import Simulator, run_program
from repro.sim import memory as memory_module
from repro.sim.cpu import SimulationError
from repro.sim.memory import AlignmentError_
from repro.sim import fastpath
from repro.sim.fastpath import FastPath
from repro.system import paper_system
from repro.workloads import load_workload
from tests.test_system_equivalence import (
    _assert_run_matches_the_coupled_oracle,
)

_POOL = ["$zero", "$t0", "$t1", "$t2", "$t3"]
_R_OPS = ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
          "sllv", "srlv", "srav", "add", "sub"]
_I_OPS = ["addiu", "andi", "ori", "xori", "slti", "sltiu", "addi"]
_CONSTANTS = [0, 1, -1, 7, 0x7FFF, -0x8000, 0xFFFF, 0x10000, 0x12345678,
              -0x12345678, 0x80000000, 0xFFFF0000]


def _op(rng: random.Random, frames: bool = False) -> str:
    reg = lambda: rng.choice(_POOL)  # noqa: E731
    if frames and rng.random() < 0.15:
        # move the base to a neighbouring region, or load the next
        # region's address into the base through the base itself
        return rng.choice(["addiu $s0, $s0, 4096", "addiu $s0, $s0, -4096",
                           "lw   $s0, 64($s0)"])
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


def _program(seed: int, frames: bool = False) -> str:
    """A random program; with ``frames``, its base register ``$s0``
    also moves between three 64-byte regions a page apart, each
    straddling a page boundary at a seeded offset and followed by a
    word holding the next region's address (the random accesses reach
    offsets 0-63 only, so those words survive)."""
    rng = random.Random(seed)
    lines = []
    for block in range(6):
        lines += [f"        {_op(rng, frames)}"
                  for _ in range(rng.randrange(1, 9))]
        branch = rng.choice(["beq", "bne", "blez", "bgtz", "bltz", "bgez"])
        operands = f"{rng.choice(_POOL)}, {rng.choice(_POOL)}" \
            if branch in ("beq", "bne") else rng.choice(_POOL)
        lines.append(f"        {branch} {operands}, skip{block}")
        lines += [f"        {_op(rng, frames)}"
                  for _ in range(rng.randrange(0, 4))]
        lines.append(f"skip{block}:")
    body = "\n".join(lines)
    data = "buf:    .space 64"
    if frames:
        cross = 4 * rng.randrange(1, 16)  # bytes of buf before the page end
        data = f"""        .space {0x1000 - cross}
low:    .space 64
        .word buf
        .space {0x1000 - 68}
buf:    .space 64
        .word high
        .space {0x1000 - 68}
high:   .space 64
        .word low"""
    return f"""
        .data
{data}
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
    _assert_plain_matches(assemble(_program(seed)))


def _assert_plain_matches(program):
    slow = run_program(program, collect_trace=True, fast=False)
    fast = run_program(program, collect_trace=True, fast=True)
    assert fast.output == slow.output
    assert fast.registers == slow.registers
    assert fast.stats == slow.stats
    assert fast.trace.events == slow.trace.events
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()


@pytest.mark.parametrize("seed", range(40, 52))
def test_random_array_prefixes_match_interpreter(seed):
    _assert_array_matches(assemble(_program(seed)))


@pytest.mark.parametrize("seed", range(100, 130))
def test_random_frames_match_interpreter(seed):
    """Base-register writes mid-block and frames across page
    boundaries: the frame windows' guards and closing."""
    _assert_plain_matches(assemble(_program(seed, frames=True)))


@pytest.mark.parametrize("seed", range(130, 138))
def test_random_frame_array_prefixes_match_interpreter(seed):
    _assert_array_matches(assemble(_program(seed, frames=True)))


def _assert_array_matches(program):
    """Every seed's loop runs array-covered prefixes (4-10 array
    executions at C3/16/spec); the replay that accounts them must match
    the coupled simulator executing them."""
    _assert_run_matches_the_coupled_oracle(program,
                                           paper_system("C3", 16, True))


def test_stats_are_exact_after_every_block():
    """``sim.stats`` folds the packed counters in whenever it is read:
    block by block, the compiled blocks' counters equal the
    interpreter's."""
    program = assemble(_program(7))
    slow = Simulator(program, fast=False)
    fast = Simulator(program, fast=True)
    engine = FastPath(fast)
    pc = program.entry
    while slow.exit_code is None:
        outcome = slow.step_block()
        taken, pc = engine.compile_block(pc)()
        assert (taken, pc) == (outcome.taken, outcome.next_pc)
        assert fast.exit_code == slow.exit_code
        assert fast.stats == slow.stats
    assert fast.regs == slow.regs
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()


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
        run_program(program, fast=False)
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


# ----------------------------------------------------------------------
# Frame windows: two or more lw/sw through one unknown base register
# share one page lookup (see ``_Emitter.bodies``).  Each directed
# program computes its base in one block and jumps to the next, so the
# frame block does not know the base at compile time.
# ----------------------------------------------------------------------
def _interpret(program, stop_at=None):
    """The interpreter's run of ``program``, one instruction at a time,
    until it exits, raises or reaches ``stop_at``: (simulator, error,
    pc and a copy of the counters at the start of the last block it
    entered)."""
    sim = Simulator(program, collect_trace=True, fast=False)
    error = None
    block_pc, block_stats = sim.pc, dataclasses.replace(sim.stats)
    try:
        while sim.exit_code is None and sim.pc != stop_at:
            if sim.step().block_end:
                block_pc, block_stats = sim.pc, dataclasses.replace(
                    sim.stats)
    except (AlignmentError_, SimulationError) as exc:
        error = exc
    return sim, error, block_pc, block_stats


def _assert_matches_interpreter(program, stop_at=None, error=None):
    """Run ``program`` on both engines and compare registers, HI/LO,
    output, memory, trace, counters and the raised error plus its pc.

    A compiled block adds its counters when it completes and the driver
    leaves ``sim.pc`` at the start of a block that raised, so the
    counters and pc are the interpreter's at the start of the last
    block it entered; registers and memory are compared as of the
    fault.  ``stop_at`` stops the interpreter before an instruction it
    would execute but the fast path refuses (a store to ``.text``),
    whose ``error`` the fast path must raise instead.  Returns the fast
    simulator and its error."""
    slow, slow_error, block_pc, block_stats = _interpret(program, stop_at)
    fast = Simulator(program, collect_trace=True, fast=True)
    fast_error = None
    try:
        fast.run()
    except (AlignmentError_, SimulationError) as exc:
        fast_error = exc
    want = error if stop_at is not None else slow_error
    assert repr(fast_error) == repr(want)
    assert fast.pc == block_pc
    assert fast.stats == block_stats
    assert fast.regs == slow.regs
    assert (fast.hi, fast.lo) == (slow.hi, slow.lo)
    assert fast.output_parts == slow.output_parts
    assert fast._trace_events == slow._trace_events
    assert fast.memory.snapshot_pages() == slow.memory.snapshot_pages()
    return fast, fast_error


def _frame_program(setup: str, frame: str, data: str = "") -> str:
    return f"""
            .data
{data}
            .text
    __start:
            li    $t1, 0x5a5a5a5a
{setup}
            j     frame            # ends the block: frame does not know $s0
    frame:
{frame}
            xor   $a0, $t0, $t2
            li    $v0, 1
            syscall
            li    $v0, 10
            syscall
    """


def _windows(program) -> int:
    """How many frame windows the block at ``frame`` opens."""
    factory_sources = []
    compile_ = fastpath._compile

    def capture(source, name):
        factory_sources.append(source)
        return compile_(source, name)

    fastpath._compile = capture
    try:
        FastPath(Simulator(program, fast=True)).compile_block(
            program.symbols["frame"])
    finally:
        fastpath._compile = compile_
    source, = factory_sources
    return source.count("else words.get(")


# 4088 bytes of padding put ``buf`` 8 bytes before a page boundary;
# 4100 put it 4 bytes after one.
_STRADDLE_DATA = """
    pad:    .space {pad}
    buf:    .word 11, 22, 33, 44, 55, 66
"""


@pytest.mark.parametrize("pad, offsets", [(4088, (0, 4, 8, 12)),
                                          (4100, (-8, -4, 0, 4))],
                         ids=["up", "down"])
def test_frame_window_straddling_a_page_boundary(pad, offsets):
    a, b, c, d = offsets
    program = assemble(_frame_program(
        "        la    $s0, buf",
        f"""
            lw    $t0, {a}($s0)
            lw    $t2, {c}($s0)
            sw    $t1, {a}($s0)
            sw    $t0, {d}($s0)
            lw    $t3, {b}($s0)
        """, _STRADDLE_DATA.format(pad=pad)))
    assert _windows(program) == 1
    fast, error = _assert_matches_interpreter(program)
    assert error is None
    assert fast.regs[10] == (33 if pad == 4088 else 11)  # $t2


@pytest.mark.parametrize("access", ["lw    $t0, 4($s0)",
                                    "sw    $t1, 4($s0)"],
                         ids=["lw", "sw"])
def test_frame_window_with_a_misaligned_base(access):
    program = assemble(_frame_program(
        "        la    $s0, buf\n        addiu $s0, $s0, 2",
        f"""
            addu  $t2, $t1, $t1
            {access}
            lw    $t2, 8($s0)
        """, "    buf:    .space 32"))
    assert _windows(program) == 1
    _, error = _assert_matches_interpreter(program)
    assert isinstance(error, AlignmentError_)


def test_frame_window_first_store_to_an_unmapped_page():
    """The guard finds no page: the first store allocates it through
    ``ww`` and the window's later accesses read it back; a window that
    only loads from another unmapped page reads zeros and allocates
    nothing."""
    program = assemble(_frame_program(
        "        lui   $s0, 0x2000\n        lui   $s1, 0x3000",
        """
            lw    $t0, 4($s0)
            sw    $t1, 0($s0)
            lw    $t2, 0($s0)
            sw    $t2, 8($s0)
            lw    $t3, 0($s1)
            lw    $t4, 4($s1)
        """))
    assert _windows(program) == 2
    fast, error = _assert_matches_interpreter(program)
    assert error is None
    assert 0x20000 in fast.memory.words
    assert 0x30000 not in fast.memory.words
    assert fast.regs[10] == 0x5a5a5a5a  # $t2


@pytest.mark.parametrize("rewrite", ["addiu $s0, $s0, 4096",
                                     "addiu $s0, $s0, -4096",
                                     "lw    $s0, 8($s0)"],
                         ids=["addiu-up", "addiu-down", "load-into-base"])
def test_frame_window_closes_when_its_base_is_written(rewrite):
    """After the rewrite the block makes one more access through the
    base: it must use the new value, not the window opened on the
    old one."""
    program = assemble(_frame_program(
        "        la    $s0, mid",
        f"""
            lw    $t0, 0($s0)
            sw    $t1, 4($s0)
            {rewrite}
            lw    $t2, 0($s0)
        """, """
    low:    .word 1, 2, low
            .space 4084
    mid:    .word 3, 4, high
            .space 4084
    high:   .word 5, 6, mid
    """))
    assert _windows(program) == 1
    fast, error = _assert_matches_interpreter(program)
    assert error is None
    assert fast.regs[10] == (1 if "-4096" in rewrite else 5)  # $t2


def test_frame_window_store_into_text_raises():
    """A window whose page holds ``.text`` fails its guard, so its store
    takes the call route and its ``.text`` check: the fast path raises
    where the interpreter would overwrite its own code."""
    source = _frame_program(
        "        la    $s0, __start",
        """
            lw    $t0, 0($s0)
    store:  sw    $t1, 4($s0)
            lw    $t2, 8($s0)
        """)
    program = assemble(source)
    assert _windows(program) == 1
    store = program.symbols["store"]
    error = fastpath._text_store_error(program.entry + 4)
    _, raised = _assert_matches_interpreter(program, stop_at=store,
                                            error=error)
    assert raised is not None


def test_frame_windows_without_word_views(monkeypatch):
    """The big-endian route: no views, so every guard fails and each
    access of a window calls ``rw``/``ww`` with the same results."""
    monkeypatch.setattr(memory_module, "WORD_VIEWS", False)
    program = assemble(_frame_program(
        "        la    $s0, buf",
        """
            lw    $t0, 0($s0)
            sw    $t1, 4($s0)
            lw    $t2, 4($s0)
            sw    $t0, 8($s0)
        """, "    buf:    .word 7, 8, 9"))
    assert _windows(program) == 1
    fast, error = _assert_matches_interpreter(program)
    assert error is None
    assert fast.memory.words == {}
    assert fast.regs[10] == 0x5a5a5a5a  # $t2


class _CountingWords(dict):
    """A page -> word view map that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_frame_windows_fire_on_a_traced_workload():
    """crc keeps every local in its stack frame: with one page lookup
    per window rather than one per access, the compiled blocks make
    well under one ``words.get`` per two word accesses."""
    sim = Simulator(load_workload("crc"), collect_trace=True, fast=True)
    words = sim.memory.words = _CountingWords(sim.memory.words)
    stats = sim.run().stats
    assert words.gets < 0.5 * (stats.loads + stats.stores)
