"""Static block costs must agree with the simulator on any single block."""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.sim import Simulator, TimingModel, run_program
from repro.system.costmodel import BlockCostModel

EXIT = "li $v0, 10\nsyscall\n"

_SAFE_OPS = [
    "addu $t{d}, $t{a}, $t{b}",
    "subu $t{d}, $t{a}, $t{b}",
    "xor $t{d}, $t{a}, $t{b}",
    "sll $t{d}, $t{a}, {sh}",
    "slt $t{d}, $t{a}, $t{b}",
    "lw $t{d}, {off}($gp)",
    "sw $t{a}, {off}($gp)",
    "mult $t{a}, $t{b}",
    "mflo $t{d}",
    "mfhi $t{d}",
    "div $t{a}, $t{b}",
]


@st.composite
def straight_line_programs(draw):
    n = draw(st.integers(1, 25))
    lines = ["li $gp, 0x10010000"]
    for _ in range(n):
        template = draw(st.sampled_from(_SAFE_OPS))
        lines.append(template.format(
            d=draw(st.integers(0, 7)), a=draw(st.integers(0, 7)),
            b=draw(st.integers(0, 7)), sh=draw(st.integers(0, 31)),
            off=draw(st.integers(0, 15)) * 4))
    return "\n".join(lines) + "\n" + EXIT


@settings(max_examples=40, deadline=None)
@given(straight_line_programs())
def test_block_cost_matches_simulator(source):
    program = assemble(source)
    result = run_program(program, collect_trace=True)
    model = BlockCostModel(TimingModel())
    total = 0
    for code in result.trace.events:
        block = result.trace.table.get(code >> 1)
        total += model.cost(block).cycles(code & 1)
    assert total == result.stats.cycles


def test_cost_of_block_suffix():
    source = """
        li $gp, 0x10010000
        lw $t0, 0($gp)
        add $t1, $t0, $t0
        mult $t0, $t1
        mflo $t2
    """ + EXIT
    program = assemble(source)
    sim = Simulator(program)
    block = sim.block_at(program.text_base)
    model = BlockCostModel(TimingModel())
    full = model.cost(block, 0)
    suffix = model.cost(block, 3)
    assert suffix.instructions == full.instructions - 3
    assert suffix.cycles_not_taken < full.cycles_not_taken
    # skipping the mult means mflo sees HI/LO ready: no stall in suffix
    # starting at the mflo itself
    tail = model.cost(block, 4)
    assert tail.hilo_stalls == 0


def test_cost_caches_by_block_and_start():
    source = "addu $t0, $t1, $t2\n" + EXIT
    program = assemble(source)
    sim = Simulator(program)
    block = sim.block_at(program.text_base)
    model = BlockCostModel(TimingModel())
    first = model.cost(block)
    assert model.cost(block) is first


def test_taken_cost_adds_branch_penalty_only_for_conditionals():
    source = """
        addu $t0, $t1, $t2
        beq $t0, $t0, 0x400000
    """ + EXIT
    program = assemble(source)
    sim = Simulator(program)
    block = sim.block_at(program.text_base)
    model = BlockCostModel(TimingModel())
    cost = model.cost(block)
    assert cost.cycles_taken == cost.cycles_not_taken + 1

    jump = assemble("addu $t0, $t1, $t2\nj 0x400000\n" + EXIT)
    sim = Simulator(jump)
    block = sim.block_at(jump.text_base)
    cost = model.cost(block)
    # jumps are always taken: the penalty is inside both outcomes
    assert cost.cycles_taken == cost.cycles_not_taken
