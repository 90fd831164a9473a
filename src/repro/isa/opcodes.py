"""Opcode tables and per-instruction metadata for the implemented MIPS I subset.

The subset covers everything the mini-C compiler emits and everything found
in hand-written workload assembly: the full integer ALU, shifts, multiply /
divide with HI/LO, all byte/half/word loads and stores, branches, jumps and
``syscall``.  Floating point is intentionally absent — the paper's array
"does not support floating point operations" and only non-FP MiBench
programs are evaluated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class InstrClass(enum.Enum):
    """Coarse behavioural class, used by the simulator and by DIM.

    DIM's translation hardware only understands a subset of the ISA; the
    class is how it decides whether an instruction can enter the array
    (see :meth:`OpInfo.array_supported`).
    """

    ALU = "alu"            # add/sub/logic/slt/lui — one array ALU op
    SHIFT = "shift"        # sll/srl/sra and variable forms — array ALU op
    MULT = "mult"          # mult/multu — array multiplier op
    DIV = "div"            # div/divu — unsupported by the array
    HILO = "hilo"          # mfhi/mflo/mthi/mtlo — unsupported by the array
    LOAD = "load"          # lb/lbu/lh/lhu/lw — array load/store unit
    STORE = "store"        # sb/sh/sw — array load/store unit
    BRANCH = "branch"      # conditional branches — block terminators
    JUMP = "jump"          # j/jal/jr/jalr — block terminators
    SYSCALL = "syscall"    # syscall/break — unsupported, ends translation
    NOP = "nop"            # canonical nop (sll $0,$0,0)


class Format(enum.Enum):
    """Binary encoding format."""

    R = "R"
    I = "I"
    J = "J"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one mnemonic."""

    mnemonic: str
    fmt: Format
    opcode: int
    #: funct field for R-format, rt field for REGIMM branches, else None.
    funct: Optional[int]
    klass: InstrClass
    #: operand roles: which of rs/rt are read, which of rd/rt is written.
    reads_rs: bool = False
    reads_rt: bool = False
    writes_rd: bool = False
    writes_rt: bool = False
    #: immediate is sign-extended (True) or zero-extended (False).
    signed_imm: bool = True
    #: True for the REGIMM encodings (opcode 0x01, branch selected by rt).
    regimm: bool = False

    @property
    def array_supported(self) -> bool:
        """Whether DIM may place this instruction inside a configuration.

        Conditional branches are special: they terminate a basic block but
        *can* live in the array as the comparison feeding the speculation
        check, so they are reported separately by the translator.
        """
        return self.klass in (
            InstrClass.ALU,
            InstrClass.SHIFT,
            InstrClass.MULT,
            InstrClass.LOAD,
            InstrClass.STORE,
        )

    @property
    def is_control(self) -> bool:
        """True for any instruction that can redirect the PC."""
        return self.klass in (InstrClass.BRANCH, InstrClass.JUMP)


def _r(mnemonic: str, funct: int, klass: InstrClass, *, rs=True, rt=True,
       rd=True) -> OpInfo:
    return OpInfo(mnemonic, Format.R, 0x00, funct, klass,
                  reads_rs=rs, reads_rt=rt, writes_rd=rd)


def _i(mnemonic: str, opcode: int, klass: InstrClass, *, rs=True, rt=False,
       wrt=True, signed=True) -> OpInfo:
    return OpInfo(mnemonic, Format.I, opcode, None, klass,
                  reads_rs=rs, reads_rt=rt, writes_rt=wrt, signed_imm=signed)


_OPS = [
    # --- R-format ALU -----------------------------------------------------
    _r("add", 0x20, InstrClass.ALU),
    _r("addu", 0x21, InstrClass.ALU),
    _r("sub", 0x22, InstrClass.ALU),
    _r("subu", 0x23, InstrClass.ALU),
    _r("and", 0x24, InstrClass.ALU),
    _r("or", 0x25, InstrClass.ALU),
    _r("xor", 0x26, InstrClass.ALU),
    _r("nor", 0x27, InstrClass.ALU),
    _r("slt", 0x2A, InstrClass.ALU),
    _r("sltu", 0x2B, InstrClass.ALU),
    # --- shifts ------------------------------------------------------------
    _r("sll", 0x00, InstrClass.SHIFT, rs=False),
    _r("srl", 0x02, InstrClass.SHIFT, rs=False),
    _r("sra", 0x03, InstrClass.SHIFT, rs=False),
    _r("sllv", 0x04, InstrClass.SHIFT),
    _r("srlv", 0x06, InstrClass.SHIFT),
    _r("srav", 0x07, InstrClass.SHIFT),
    # --- multiply / divide -------------------------------------------------
    _r("mult", 0x18, InstrClass.MULT, rd=False),
    _r("multu", 0x19, InstrClass.MULT, rd=False),
    _r("div", 0x1A, InstrClass.DIV, rd=False),
    _r("divu", 0x1B, InstrClass.DIV, rd=False),
    _r("mfhi", 0x10, InstrClass.HILO, rs=False, rt=False),
    _r("mflo", 0x12, InstrClass.HILO, rs=False, rt=False),
    _r("mthi", 0x11, InstrClass.HILO, rt=False, rd=False),
    _r("mtlo", 0x13, InstrClass.HILO, rt=False, rd=False),
    # --- register jumps ----------------------------------------------------
    _r("jr", 0x08, InstrClass.JUMP, rt=False, rd=False),
    _r("jalr", 0x09, InstrClass.JUMP, rt=False),
    OpInfo("syscall", Format.R, 0x00, 0x0C, InstrClass.SYSCALL),
    OpInfo("break", Format.R, 0x00, 0x0D, InstrClass.SYSCALL),
    # --- I-format ALU ------------------------------------------------------
    _i("addi", 0x08, InstrClass.ALU),
    _i("addiu", 0x09, InstrClass.ALU),
    _i("slti", 0x0A, InstrClass.ALU),
    _i("sltiu", 0x0B, InstrClass.ALU),
    _i("andi", 0x0C, InstrClass.ALU, signed=False),
    _i("ori", 0x0D, InstrClass.ALU, signed=False),
    _i("xori", 0x0E, InstrClass.ALU, signed=False),
    _i("lui", 0x0F, InstrClass.ALU, rs=False, signed=False),
    # --- loads / stores ----------------------------------------------------
    _i("lb", 0x20, InstrClass.LOAD),
    _i("lh", 0x21, InstrClass.LOAD),
    _i("lw", 0x23, InstrClass.LOAD),
    _i("lbu", 0x24, InstrClass.LOAD),
    _i("lhu", 0x25, InstrClass.LOAD),
    _i("sb", 0x28, InstrClass.STORE, rt=True, wrt=False),
    _i("sh", 0x29, InstrClass.STORE, rt=True, wrt=False),
    _i("sw", 0x2B, InstrClass.STORE, rt=True, wrt=False),
    # --- branches ----------------------------------------------------------
    _i("beq", 0x04, InstrClass.BRANCH, rt=True, wrt=False),
    _i("bne", 0x05, InstrClass.BRANCH, rt=True, wrt=False),
    _i("blez", 0x06, InstrClass.BRANCH, wrt=False),
    _i("bgtz", 0x07, InstrClass.BRANCH, wrt=False),
    OpInfo("bltz", Format.I, 0x01, 0x00, InstrClass.BRANCH,
           reads_rs=True, regimm=True),
    OpInfo("bgez", Format.I, 0x01, 0x01, InstrClass.BRANCH,
           reads_rs=True, regimm=True),
    # --- absolute jumps ----------------------------------------------------
    OpInfo("j", Format.J, 0x02, None, InstrClass.JUMP),
    OpInfo("jal", Format.J, 0x03, None, InstrClass.JUMP),
]

#: Mnemonic -> metadata for every implemented instruction.
OPCODES: Dict[str, OpInfo] = {op.mnemonic: op for op in _OPS}

#: (opcode, funct) -> OpInfo for R-format decode.
_R_BY_FUNCT: Dict[int, OpInfo] = {
    op.funct: op for op in _OPS if op.fmt is Format.R
}
#: opcode -> OpInfo for non-special, non-regimm decode.
_BY_OPCODE: Dict[int, OpInfo] = {
    op.opcode: op for op in _OPS
    if op.fmt is not Format.R and not op.regimm
}
#: rt field -> OpInfo for REGIMM decode.
_REGIMM_BY_RT: Dict[int, OpInfo] = {op.funct: op for op in _OPS if op.regimm}


def lookup(mnemonic: str) -> OpInfo:
    """Return metadata for ``mnemonic``; raises KeyError if unimplemented."""
    return OPCODES[mnemonic]


def decode_fields(opcode: int, rt: int, funct: int) -> Optional[OpInfo]:
    """Resolve raw fields to an :class:`OpInfo` (None if unrecognised)."""
    if opcode == 0x00:
        return _R_BY_FUNCT.get(funct)
    if opcode == 0x01:
        return _REGIMM_BY_RT.get(rt)
    return _BY_OPCODE.get(opcode)
