"""The MIPS core: functional behaviour and cycle accounting."""

import pytest

from repro.asm import assemble
from repro.sim import Simulator, SimulationError, TimingModel, run_program
from repro.isa.registers import register_number


def run(source, **kwargs):
    return run_program(assemble(source), **kwargs)


EXIT = "li $v0, 10\nsyscall\n"


def test_arithmetic_and_exit_code():
    result = run("""
        li $t0, 40
        addiu $t0, $t0, 2
        move $a0, $t0
        li $v0, 17
        syscall
    """)
    assert result.exit_code == 42


def test_print_services():
    result = run("""
        .data
    msg: .asciiz "x="
        .text
        la $a0, msg
        li $v0, 4
        syscall
        li $a0, -7
        li $v0, 1
        syscall
        li $a0, '!'
        li $v0, 11
        syscall
    """ + EXIT)
    assert result.output == "x=-7!"


def test_memory_round_trip_all_widths():
    result = run("""
        .data
    buf: .space 16
        .text
        la $t0, buf
        li $t1, 0x81
        sb $t1, 0($t0)
        lb $t2, 0($t0)        # sign-extends
        lbu $t3, 0($t0)
        li $t4, 0x8001
        sh $t4, 4($t0)
        lh $t5, 4($t0)
        lhu $t6, 4($t0)
        move $a0, $t2
        li $v0, 1
        syscall
        li $a0, ' '
        li $v0, 11
        syscall
        move $a0, $t3
        li $v0, 1
        syscall
    """ + EXIT)
    assert result.output == "-127 129"
    regs = result.registers
    assert regs[register_number("t5")] == 0xFFFF8001
    assert regs[register_number("t6")] == 0x8001


def test_zero_register_is_immutable():
    result = run("""
        addiu $zero, $zero, 5
        move $a0, $zero
        li $v0, 17
        syscall
    """)
    assert result.exit_code == 0


def test_jal_jr_call_and_return():
    result = run("""
        jal func
        move $a0, $v0
        li $v0, 17
        syscall
    func:
        li $v0, 9
        jr $ra
    """)
    assert result.exit_code == 9


def test_hi_lo_mult_div():
    result = run("""
        li $t0, -6
        li $t1, 7
        mult $t0, $t1
        mflo $a0
        li $v0, 1
        syscall
        li $a0, ' '
        li $v0, 11
        syscall
        li $t0, 17
        li $t1, 5
        div $t0, $t1
        mflo $a0
        li $v0, 1
        syscall
        mfhi $a0
        li $v0, 1
        syscall
    """ + EXIT)
    assert result.output == "-42 32"


def test_cycle_accounting_straight_line():
    # 3 plain instructions + syscall: no stalls, no penalties
    result = run("li $t0, 1\nli $t1, 2\nadd $t2, $t0, $t1\n" + EXIT)
    assert result.stats.cycles == result.stats.instructions


def test_load_use_stall_charged():
    timing = TimingModel()
    base = run("""
        .data
    v:  .word 5
        .text
        la $t0, v
        lw $t1, 0($t0)
        nop
        add $t2, $t1, $t1
    """ + EXIT)
    stalled = run("""
        .data
    v:  .word 5
        .text
        la $t0, v
        lw $t1, 0($t0)
        add $t2, $t1, $t1
        nop
    """ + EXIT)
    assert stalled.stats.load_use_stalls == base.stats.load_use_stalls + 1
    assert stalled.stats.cycles == base.stats.cycles + timing.load_use_stall


def test_taken_branch_penalty():
    taken = run("""
        li $t0, 1
        beq $t0, $t0, target
        nop
    target:
    """ + EXIT)
    not_taken = run("""
        li $t0, 1
        beq $t0, $zero, target
        nop
    target:
    """ + EXIT)
    # same instruction count apart from the skipped nop
    assert taken.stats.taken_transfers == not_taken.stats.taken_transfers + 1


def test_hilo_stall_when_read_early():
    timing = TimingModel()
    early = run("li $t0, 3\nli $t1, 4\nmult $t0, $t1\nmflo $t2\n" + EXIT)
    late = run("li $t0, 3\nli $t1, 4\nmult $t0, $t1\n"
               + "nop\n" * timing.mult_latency + "mflo $t2\n" + EXIT)
    assert early.stats.hilo_stalls > 0
    assert late.stats.hilo_stalls == 0


def test_instruction_budget_guard():
    with pytest.raises(SimulationError):
        run("loop: j loop\n", max_instructions=1000)


def test_illegal_instruction_raises():
    program = assemble(".data\n.text\n")
    # point entry at unmapped memory: word 0 decodes as nop (sll), so
    # write a truly illegal word first.
    program = assemble("main: .text\nnop\n")
    sim = Simulator(program)
    sim.memory.write_word(program.text_base, 0xFC000000)
    with pytest.raises(SimulationError):
        sim.run()


def test_trace_block_formation():
    result = run("""
        li $t0, 3
    loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
    """ + EXIT, collect_trace=True)
    trace = result.trace
    # blocks: [li..bne], [addiu, bne] x2? first block includes loop body
    assert len(trace.events) >= 3
    # every event's block is registered and consistent
    for code in trace.events:
        block = trace.table.get(code >> 1)
        assert block.instructions
    # loop block executed with taken=1 twice, 0 once
    loop_codes = [code for code in trace.events
                  if trace.table.get(code >> 1).is_conditional]
    assert [code & 1 for code in loop_codes] == [1, 1, 0]


def test_trace_event_encoding():
    """Each event is ``block_id << 1 | taken``: a jump and a taken
    branch set the low bit; a fall-through branch and a syscall-ended
    block clear it; the interpreter and the fast path record the same
    column."""
    program = assemble("""
        li $t0, 1
        j over
    over:
        beq $t0, $zero, never
        beq $t0, $t0, done
    never:
        nop
    done:
    """ + EXIT)
    slow = run_program(program, collect_trace=True).trace
    fast = run_program(program, collect_trace=True, fast=True).trace
    assert slow.events.typecode == "I"
    assert fast.events == slow.events
    terminators = [(slow.table.get(code >> 1).instructions[-1].mnemonic,
                    code & 1) for code in slow.events]
    assert terminators == [("j", 1), ("beq", 0), ("beq", 1),
                           ("syscall", 0)]


def test_step_outcome_fields():
    program = assemble("li $t0, 1\n" + EXIT)
    sim = Simulator(program)
    outcome = sim.step()
    assert not outcome.block_end
    assert outcome.pc == program.text_base
    assert outcome.next_pc == program.text_base + 4
