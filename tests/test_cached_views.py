"""Views computed once per instance agree with their definitions.

``Instruction.info``/``klass`` and ``BasicBlock.branch_pc`` are fixed at
construction; each must equal the lookup it replaces, for every opcode
and every instruction and block of the built-in workloads, and survive
a pickle round trip.
"""

import dataclasses
import pickle

import pytest

from repro.isa import Instruction, OPCODES, decode
from repro.isa.opcodes import InstrClass
from repro.workloads import load_workload, run_workload, workload_names


def expected_klass(instr):
    if (instr.mnemonic == "sll" and instr.rd == 0 and instr.rt == 0
            and instr.shamt == 0):
        return InstrClass.NOP
    return OPCODES[instr.mnemonic].klass


def assert_views(instr):
    assert instr.info is OPCODES[instr.mnemonic]
    assert instr.klass is expected_klass(instr)


@pytest.mark.parametrize("mnemonic", sorted(OPCODES))
def test_views_match_the_opcode_table(mnemonic):
    for fields in ({}, {"rd": 1}, {"rt": 1}, {"shamt": 1}, {"rs": 1}):
        instr = Instruction(mnemonic, **fields)
        assert_views(instr)
        assert_views(pickle.loads(pickle.dumps(instr)))


def test_nop_pattern_is_its_own_class():
    assert Instruction("sll").klass is InstrClass.NOP
    assert Instruction("sll", rs=3).klass is InstrClass.NOP
    for fields in ({"rd": 1}, {"rt": 1}, {"shamt": 1}):
        assert Instruction("sll", **fields).klass is OPCODES["sll"].klass


def test_views_are_not_fields():
    instr = Instruction("addiu", rs=29, rt=29, imm=-32)
    names = [field.name for field in dataclasses.fields(instr)]
    assert names == ["mnemonic", "rs", "rt", "rd", "shamt", "imm",
                     "target"]
    assert repr(instr) == ("Instruction(mnemonic='addiu', rs=29, rt=29, "
                           "rd=0, shamt=0, imm=-32, target=0)")
    assert dataclasses.asdict(instr) == dict(
        mnemonic="addiu", rs=29, rt=29, rd=0, shamt=0, imm=-32, target=0)
    assert instr == dataclasses.replace(instr) != \
        dataclasses.replace(instr, imm=-31)
    assert b"klass" not in pickle.dumps(instr)


@pytest.mark.parametrize("name", workload_names())
def test_workload_instructions_and_blocks(name):
    program = load_workload(name)
    for offset in range(0, len(program.text), 4):
        instr = decode(int.from_bytes(program.text[offset:offset + 4],
                                      "little"))
        if instr is not None:
            assert_views(instr)
    blocks = run_workload(name).trace.table.blocks
    for block in blocks:
        assert block.branch_pc == \
            block.start_pc + 4 * (len(block.instructions) - 1)
        for instr in block.instructions:
            assert_views(instr)
    restored = pickle.loads(pickle.dumps(blocks))
    for before, after in zip(blocks, restored, strict=True):
        assert after.branch_pc == before.branch_pc
        assert after.instructions == before.instructions
        for instr in after.instructions:
            assert_views(instr)
