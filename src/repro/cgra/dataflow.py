"""DIM's dataflow view of MIPS instructions.

The translation hardware tracks dependences through the 32 general
registers plus the HI/LO multiply results, which it treats as two extra
context slots (indices 32 and 33).  That is what lets ``mult``/``mflo``
pairs — ubiquitous in compiled code — live inside one configuration
instead of terminating translation.

:func:`placement_record` folds the per-instruction views below into one
:class:`Placement`, the row the allocator's tables are indexed by, so a
placement looks its facts up instead of re-deriving them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass

#: context indices for the multiply result registers.
HI = 32
LO = 33
#: number of context slots (32 GPRs plus HI/LO).
CONTEXT_SLOTS = 34

#: functional-unit indices, the order of a line's usage triple.
FU_ALU, FU_MULT, FU_MEM = 0, 1, 2
_FU_INDEX = {"alu": FU_ALU, "mult": FU_MULT, "mem": FU_MEM}

#: memory kinds of a :class:`Placement`.
MEM_NONE, MEM_LOAD, MEM_STORE = 0, 1, 2
_MEM_INDEX = {None: MEM_NONE, "load": MEM_LOAD, "store": MEM_STORE}


def dim_supported(instr: Instruction) -> bool:
    """Whether DIM can place this instruction inside a configuration.

    ALU ops, shifts, multiplies, HI/LO moves and loads/stores are
    supported; divides (no divider in the array), jumps and syscalls are
    not.  Conditional branches are *terminators*: they may enter a
    configuration only as the comparison guarding a speculated block, so
    they are reported unsupported here and handled by the translator.
    """
    klass = instr.klass
    if klass in (InstrClass.ALU, InstrClass.SHIFT, InstrClass.MULT,
                 InstrClass.LOAD, InstrClass.STORE, InstrClass.NOP):
        return True
    if klass is InstrClass.HILO:
        return True
    return False


def dim_fu_class(instr: Instruction) -> str:
    """Functional-unit class consumed: 'alu', 'mult' or 'mem'.

    HI/LO moves and branch comparisons occupy ALU slots; nops occupy
    nothing but are mapped to 'alu' for uniformity (the translator skips
    them).
    """
    klass = instr.klass
    if klass is InstrClass.MULT:
        return "mult"
    if klass in (InstrClass.LOAD, InstrClass.STORE):
        return "mem"
    return "alu"


def dim_sources(instr: Instruction) -> Tuple[int, ...]:
    """Context slots read (register numbers, plus HI/LO), $zero excluded."""
    klass = instr.klass
    if klass is InstrClass.HILO:
        if instr.mnemonic == "mfhi":
            return (HI,)
        if instr.mnemonic == "mflo":
            return (LO,)
        # mthi / mtlo read a GPR
        return tuple(r for r in (instr.rs,) if r != 0)
    return tuple(r for r in instr.sources() if r != 0)


def dim_destinations(instr: Instruction) -> Tuple[int, ...]:
    """Context slots written (register numbers, plus HI/LO)."""
    klass = instr.klass
    if klass is InstrClass.MULT:
        return (HI, LO)
    if klass is InstrClass.HILO:
        if instr.mnemonic == "mthi":
            return (HI,)
        if instr.mnemonic == "mtlo":
            return (LO,)
        dest = instr.destination()
        return (dest,) if dest is not None else ()
    dest = instr.destination()
    return (dest,) if dest is not None else ()


def has_immediate(instr: Instruction) -> bool:
    """Whether the configuration must store an immediate for this op."""
    info = instr.info
    if info.fmt.value == "I" and instr.klass is not InstrClass.BRANCH:
        return instr.imm != 0
    if instr.mnemonic in ("sll", "srl", "sra"):
        return instr.shamt != 0
    return False


def memory_kind(instr: Instruction) -> Optional[str]:
    """'load', 'store' or None."""
    klass = instr.klass
    if klass is InstrClass.LOAD:
        return "load"
    if klass is InstrClass.STORE:
        return "store"
    return None


class Placement(NamedTuple):
    """Everything the allocator needs to place one instruction.

    ``reads``/``writes`` are the source/destination slots as bitmasks
    over the :data:`CONTEXT_SLOTS` context slots.
    """

    instr: Instruction
    nop: bool
    immediate: bool
    fu: int
    sources: Tuple[int, ...]
    reads: int
    destinations: Tuple[int, ...]
    writes: int
    memory: int


def _mask(slots: Tuple[int, ...]) -> int:
    mask = 0
    for slot in slots:
        mask |= 1 << slot
    return mask


@lru_cache(maxsize=1 << 14)
def placement_record(instr: Instruction) -> Placement:
    """The :class:`Placement` of ``instr``.

    Memoized by instruction *value*: compiled code repeats the same
    instructions heavily (a cold 216-cell sweep translates ~25,700
    instructions of only ~660 distinct values), so equal instructions
    share one record.
    """
    if instr.klass is InstrClass.NOP:
        return Placement(instr, True, False, FU_ALU, (), 0, (), 0, MEM_NONE)
    sources = dim_sources(instr)
    destinations = dim_destinations(instr)
    return Placement(instr, False, has_immediate(instr),
                     _FU_INDEX[dim_fu_class(instr)], sources,
                     _mask(sources), destinations, _mask(destinations),
                     _MEM_INDEX[memory_kind(instr)])
