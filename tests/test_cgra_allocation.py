"""The array allocator: dependence, resources, memory ordering, timing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgra import Allocator, ArrayShape, HI, INFINITE_SHAPE, LO
from repro.cgra.dataflow import (
    dim_destinations,
    dim_fu_class,
    dim_sources,
    dim_supported,
    has_immediate,
    placement_record,
)
from repro.dim.translator import _place_body, block_records
from repro.isa.instruction import Instruction
from repro.system.config import PAPER_SHAPES
from repro.workloads import run_workload
from tests.placer import ReferenceAllocator, place_body

SHAPE = ArrayShape(rows=8, alus_per_row=2, mults_per_row=1, ldsts_per_row=2,
                   alu_chain=2, immediate_slots=16)


def op(mnemonic, **fields):
    """The placement record of one instruction."""
    return placement_record(Instruction(mnemonic, **fields))


def alu(rd, rs, rt):
    return op("addu", rs=rs, rt=rt, rd=rd)


def load(rt, rs, imm=0):
    return op("lw", rs=rs, rt=rt, imm=imm)


def store(rt, rs, imm=0):
    return op("sw", rs=rs, rt=rt, imm=imm)


# --- dataflow metadata ----------------------------------------------------

def test_dim_supported_classes():
    assert dim_supported(Instruction("addu", rd=1))
    assert dim_supported(Instruction("sll", rd=1, shamt=2))
    assert dim_supported(Instruction("mult"))
    assert dim_supported(Instruction("mflo", rd=1))
    assert dim_supported(Instruction("lw", rt=1))
    assert dim_supported(Instruction("sw", rt=1))
    assert not dim_supported(Instruction("div"))
    assert not dim_supported(Instruction("jal"))
    assert not dim_supported(Instruction("jr", rs=31))
    assert not dim_supported(Instruction("syscall"))
    assert not dim_supported(Instruction("beq"))


def test_hi_lo_tracked_as_context_slots():
    assert dim_destinations(Instruction("mult", rs=1, rt=2)) == (HI, LO)
    assert dim_sources(Instruction("mflo", rd=3)) == (LO,)
    assert dim_sources(Instruction("mfhi", rd=3)) == (HI,)
    assert dim_destinations(Instruction("mthi", rs=4)) == (HI,)


def test_zero_register_excluded_from_dataflow():
    instr = Instruction("addu", rs=0, rt=0, rd=0)
    assert dim_sources(instr) == ()
    assert dim_destinations(instr) == ()


def test_fu_classes():
    assert dim_fu_class(Instruction("addu", rd=1)) == "alu"
    assert dim_fu_class(Instruction("mult")) == "mult"
    assert dim_fu_class(Instruction("lw", rt=1)) == "mem"
    assert dim_fu_class(Instruction("mflo", rd=1)) == "alu"


def test_immediate_detection():
    assert has_immediate(Instruction("addiu", rs=1, rt=2, imm=4))
    assert not has_immediate(Instruction("addiu", rs=1, rt=2, imm=0))
    assert has_immediate(Instruction("sll", rt=1, rd=2, shamt=3))
    assert not has_immediate(Instruction("addu", rd=1))
    assert not has_immediate(Instruction("beq", rs=1, rt=2, imm=8))


# --- placement ------------------------------------------------------------

def test_independent_ops_share_a_line():
    alloc = Allocator(SHAPE)
    assert alloc.place(alu(1, 2, 3))
    assert alloc.place(alu(4, 5, 6))
    result = alloc.finish()
    assert result.lines_used == 1


def test_dependent_ops_stack_in_lines():
    alloc = Allocator(SHAPE)
    assert alloc.place(alu(1, 2, 3))
    assert alloc.place(alu(4, 1, 5))   # reads r1 -> next line
    assert alloc.place(alu(6, 4, 1))   # reads r4 -> third line
    assert alloc.finish().lines_used == 3


def test_line_capacity_forces_next_line():
    alloc = Allocator(SHAPE)  # 2 ALUs per line
    for i in range(3):
        assert alloc.place(alu(10 + i, 1, 2))
    assert alloc.finish().lines_used == 2


def test_resource_exhaustion_fails_placement():
    tiny = ArrayShape(rows=1, alus_per_row=1, mults_per_row=0,
                      ldsts_per_row=0)
    alloc = Allocator(tiny)
    assert alloc.place(alu(1, 2, 3))
    assert not alloc.place(alu(4, 5, 6))   # line full, no more rows
    assert not alloc.place(op("mult", rs=1, rt=2))  # no mult FU
    assert alloc.count == 1


def test_immediate_slot_exhaustion():
    shape = ArrayShape(rows=8, alus_per_row=4, mults_per_row=1,
                       ldsts_per_row=2, immediate_slots=2)
    alloc = Allocator(shape)
    assert alloc.place(op("addiu", rs=1, rt=2, imm=5))
    assert alloc.place(op("addiu", rs=1, rt=3, imm=6))
    assert not alloc.place(op("addiu", rs=1, rt=4, imm=7))
    # non-immediate ops still place
    assert alloc.place(alu(9, 1, 2))


def test_memory_program_order_is_monotonic():
    alloc = Allocator(SHAPE)
    assert alloc.place(store(1, 2, 0))
    assert alloc.place(load(3, 4, 8))      # may share the store's line
    assert alloc.place(store(5, 6, 16))    # never before the load's line
    lines = {}
    # reconstruct from result: we can only check aggregate invariants
    result = alloc.finish()
    assert result.mem_ops == 3
    assert result.stores == 2
    assert result.loads == 1


def test_load_feeding_alu_orders_lines():
    alloc = Allocator(SHAPE)
    assert alloc.place(load(1, 2, 0))
    assert alloc.place(alu(3, 1, 1))
    assert alloc.finish().lines_used == 2


def test_mult_consumer_through_lo():
    alloc = Allocator(SHAPE)
    assert alloc.place(op("mult", rs=1, rt=2))
    assert alloc.place(op("mflo", rd=3))
    assert alloc.place(alu(4, 3, 3))
    assert alloc.finish().lines_used == 3


def test_exec_cycles_alu_chain():
    alloc = Allocator(SHAPE)  # alu_chain=2
    alloc.place(alu(1, 2, 3))
    alloc.place(alu(4, 1, 1))
    assert alloc.exec_cycles() == 1   # two dependent ALU lines = 1 cycle
    alloc.place(alu(5, 4, 4))
    assert alloc.exec_cycles() == 2   # three lines -> ceil(1.5)


def test_exec_cycles_memory_lines_cost_full_cycle():
    alloc = Allocator(SHAPE)
    alloc.place(load(1, 2, 0))
    assert alloc.exec_cycles() == 1
    alloc.place(alu(3, 1, 1))
    assert alloc.exec_cycles() == 2   # 1 (mem line) + ceil(0.5)


def test_inputs_and_outputs_tracking():
    alloc = Allocator(SHAPE)
    alloc.place(alu(1, 2, 3))      # reads 2,3 (live-in), writes 1
    alloc.place(alu(4, 1, 5))      # reads 1 (internal), 5 (live-in)
    result = alloc.finish()
    assert result.inputs == frozenset({2, 3, 5})
    assert result.outputs == frozenset({1, 4})


def test_snapshot_restore_round_trip():
    alloc = Allocator(SHAPE)
    alloc.place(alu(1, 2, 3))
    snap = alloc.snapshot()
    alloc.place(alu(4, 1, 1))
    alloc.place(load(5, 1, 0))
    alloc.restore(snap)
    result = alloc.finish()
    assert result.num_instructions == 1
    assert result.outputs == frozenset({1})
    assert result.loads == 0


def test_nop_covered_but_free():
    alloc = Allocator(SHAPE)
    assert alloc.place(op("sll", rd=0, rt=0, shamt=0))
    assert alloc.count == 1
    assert alloc.finish().lines_used == 0


def test_speculative_output_accounting():
    alloc = Allocator(SHAPE)
    alloc.place(alu(1, 2, 3))
    alloc.mark_nonspec_boundary()
    alloc.place(alu(4, 1, 1))
    alloc.place(alu(1, 4, 4))  # rewrites r1 speculatively
    result = alloc.finish()
    # last write wins: both r4 (new) and r1 (re-written after the
    # boundary) must be gated on branch resolution
    assert result.speculative_outputs == 2


def test_no_boundary_means_no_speculative_outputs():
    alloc = Allocator(SHAPE)
    alloc.place(alu(1, 2, 3))
    alloc.place(alu(4, 1, 1))
    assert alloc.finish().speculative_outputs == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 8),
                          st.integers(0, 8)), min_size=1, max_size=40))
def test_placement_invariants_random_alu_chains(specs):
    """Dependences always push consumers to strictly later lines."""
    alloc = Allocator(ArrayShape(rows=64, alus_per_row=2, mults_per_row=1,
                                 ldsts_per_row=2))
    writer_line = {}
    lines_used_before = 0
    for rd, rs, rt in specs:
        placed = alloc.place(alu(rd, rs, rt))
        assert placed  # 64 rows is plenty
    result = alloc.finish()
    assert result.num_instructions == len(
        [s for s in specs])
    assert result.lines_used <= 64
    # cycles are bounded below by lines/chain and above by count
    assert result.exec_cycles >= math.ceil(
        result.lines_used / alloc.shape.alu_chain)
    assert result.exec_cycles <= max(1, result.num_instructions)


def test_restoring_one_snapshot_twice():
    """A snapshot stays valid after it is restored: restoring it again
    must undo everything placed since, not keep the first restore's
    later placements."""
    alloc = Allocator(SHAPE)
    assert alloc.place(alu(1, 2, 3))
    snap = alloc.snapshot()
    alloc.restore(snap)
    assert alloc.place(alu(4, 1, 1))
    alloc.restore(snap)
    result = alloc.finish()
    assert result.num_instructions == 1
    assert result.lines_used == 1
    assert len(result.placements) == 1
    assert result.outputs == frozenset({1})


# --- the allocator against the reference placer ----------------------------

#: instructions covering every record field: FU classes, immediates,
#: HI/LO, nops, memory kinds and branch comparisons.
_MNEMONICS = ("addu", "addiu", "sll", "slt", "lui", "mult", "mflo", "mfhi",
              "mthi", "mtlo", "lw", "sw", "beq", "bne")

_instructions = st.builds(
    Instruction, st.sampled_from(_MNEMONICS), rs=st.integers(0, 6),
    rt=st.integers(0, 6), rd=st.integers(0, 6), shamt=st.integers(0, 2),
    imm=st.integers(0, 2))

_finite_shapes = st.builds(ArrayShape, rows=st.integers(1, 10),
                          alus_per_row=st.integers(0, 3),
                          mults_per_row=st.integers(0, 2),
                          ldsts_per_row=st.integers(0, 2),
                          alu_chain=st.integers(1, 4),
                          immediate_slots=st.integers(0, 6))

#: one shape in five is the unbounded one (lazily allocated lines).
_shapes = st.integers(0, 4).flatmap(
    lambda pick: st.just(INFINITE_SHAPE) if pick == 0 else _finite_shapes)

#: each step places one instruction, then maybe runs one control op
#: (rollback, dual-path bracketing, the speculative boundary) whose
#: integer picks an earlier snapshot, mark or view.
_CONTROLS = ("", "", "", "snapshot", "restore", "fork", "rewind", "join",
             "boundary")
_steps = st.lists(st.tuples(_instructions, st.sampled_from(_CONTROLS),
                            st.integers(0, 7)), min_size=20, max_size=80)


def _same_state(lean, reference):
    assert lean.count == reference.count
    assert lean.input_count == reference.input_count
    assert lean.exec_cycles() == reference.exec_cycles()
    assert lean.finish() == reference.finish()


@settings(max_examples=300, deadline=None)
@given(_shapes, _steps)
def test_allocator_matches_reference_placer(shape, steps):
    """Random instruction streams with interleaved rollback and
    dual-path bracketing: the same accept/reject sequence and the same
    AllocationResult, placements included.  Dataflow marks and views
    are dropped on restore (a restore invalidates them)."""
    lean, reference = Allocator(shape), ReferenceAllocator(shape)
    snapshots, marks, views = [], [], []
    for instr, op, arg in steps:
        assert lean.place(placement_record(instr)) == reference.place(instr)
        if op == "snapshot":
            snapshots.append((lean.snapshot(), reference.snapshot()))
        elif op == "restore" and snapshots:
            lean_snap, reference_snap = snapshots[arg % len(snapshots)]
            lean.restore(lean_snap)
            reference.restore(reference_snap)
            marks.clear()
            views.clear()
        elif op == "fork":
            marks.append((lean.fork_dataflow(),
                          reference.fork_dataflow()))
        elif op == "rewind" and marks:
            lean_mark, reference_mark = marks[arg % len(marks)]
            views.append((lean.rewind_dataflow(lean_mark),
                          reference.rewind_dataflow(reference_mark)))
        elif op == "join" and views:
            lean_view, reference_view = views[arg % len(views)]
            lean.join_dataflow(lean_view)
            reference.join_dataflow(reference_view)
        elif op == "boundary":
            lean.mark_nonspec_boundary()
            reference.mark_nonspec_boundary()
        _same_state(lean, reference)


@pytest.mark.parametrize("name", ["crc", "sha", "gsm_d"])
def test_workload_bodies_match_reference_placer(name):
    """Every occurring block body of a workload, on each paper array,
    places identically through the translator's record walk and the
    reference placer (conditional terminators included)."""
    blocks = run_workload(name).trace.table.blocks
    for array in ("C1", "C2", "C3"):
        shape = PAPER_SHAPES[array]
        for block in blocks:
            lean, reference = Allocator(shape), ReferenceAllocator(shape)
            body = block.instructions if block.terminator is None \
                else block.instructions[:-1]
            outcome = place_body(reference, body)
            assert _place_body(lean, block) == outcome
            if outcome[1] == "full" and block.is_conditional:
                lean.mark_nonspec_boundary()
                reference.mark_nonspec_boundary()
                assert lean.place(block_records(block)[2]) \
                    == reference.place(block.terminator)
            _same_state(lean, reference)
