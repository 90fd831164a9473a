"""The :class:`Instruction` value type and 32-bit binary encode/decode."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.isa.opcodes import (
    Format,
    InstrClass,
    OPCODES,
    decode_fields,
)
from repro.isa.registers import register_name

MASK32 = 0xFFFFFFFF


def sign_extend16(value: int) -> int:
    """Sign-extend a 16-bit field to a Python int in [-32768, 32767]."""
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


@dataclass(frozen=True)
class Instruction:
    """One decoded MIPS instruction.

    ``imm`` stores the immediate as a *signed* Python int for sign-extended
    forms and an unsigned one otherwise; ``target`` stores the full 28-bit
    byte target of J-format instructions (already shifted left by 2).

    ``info`` (the :data:`OPCODES` entry) and ``klass`` are computed once,
    at construction.  They are plain attributes, not fields, so equality,
    hashing, ``repr``, ``asdict`` and the pickled state see the seven
    fields only.
    """

    mnemonic: str
    rs: int = 0
    rt: int = 0
    rd: int = 0
    shamt: int = 0
    imm: int = 0
    target: int = 0

    def __post_init__(self) -> None:
        # frozen dataclass, so via object.__setattr__
        info = OPCODES[self.mnemonic]
        object.__setattr__(self, "info", info)
        # The canonical nop is the all-zero word, which decodes as sll.
        klass = InstrClass.NOP if (
            self.mnemonic == "sll" and self.rd == 0 and self.rt == 0
            and self.shamt == 0) else info.klass
        object.__setattr__(self, "klass", klass)

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, so a copy recomputes info and klass
        return (Instruction,
                tuple(getattr(self, name) for name in _FIELD_NAMES))

    # ------------------------------------------------------------------
    # Dataflow views used by the simulator and DIM.
    # ------------------------------------------------------------------
    def sources(self) -> Tuple[int, ...]:
        """Register numbers this instruction reads (may include $zero)."""
        info = self.info
        out = []
        if info.reads_rs:
            out.append(self.rs)
        if info.reads_rt:
            out.append(self.rt)
        return tuple(out)

    def destination(self) -> Optional[int]:
        """The GPR written, or None (stores, branches, mult/div, $zero)."""
        info = self.info
        if info.writes_rd:
            dest = self.rd
        elif info.writes_rt:
            dest = self.rt
        elif self.mnemonic in ("jal", "jalr"):
            dest = 31 if self.mnemonic == "jal" else self.rd
        else:
            return None
        return dest if dest != 0 else None

    def branch_target(self, pc: int) -> int:
        """Target address of a taken branch/jump located at ``pc``."""
        info = self.info
        if info.fmt is Format.J:
            return ((pc + 4) & 0xF0000000) | self.target
        if info.klass is InstrClass.BRANCH:
            return (pc + 4 + (self.imm << 2)) & MASK32
        raise ValueError(f"{self.mnemonic} has no branch target")

    # ------------------------------------------------------------------
    # Pretty printing (assembly-compatible).
    # ------------------------------------------------------------------
    def __str__(self) -> str:  # noqa: C901 - straightforward case split
        m = self.mnemonic
        info = self.info
        r = register_name
        if self.klass is InstrClass.NOP:
            return "nop"
        if info.fmt is Format.J:
            return f"{m} 0x{self.target:x}"
        if m in ("sll", "srl", "sra"):
            return f"{m} ${r(self.rd)}, ${r(self.rt)}, {self.shamt}"
        if m in ("sllv", "srlv", "srav"):
            return f"{m} ${r(self.rd)}, ${r(self.rt)}, ${r(self.rs)}"
        if m in ("mult", "multu", "div", "divu"):
            return f"{m} ${r(self.rs)}, ${r(self.rt)}"
        if m in ("mfhi", "mflo"):
            return f"{m} ${r(self.rd)}"
        if m in ("mthi", "mtlo"):
            return f"{m} ${r(self.rs)}"
        if m == "jr":
            return f"{m} ${r(self.rs)}"
        if m == "jalr":
            return f"{m} ${r(self.rd)}, ${r(self.rs)}"
        if m in ("syscall", "break"):
            return m
        if info.fmt is Format.R:
            return f"{m} ${r(self.rd)}, ${r(self.rs)}, ${r(self.rt)}"
        if info.klass in (InstrClass.LOAD, InstrClass.STORE):
            return f"{m} ${r(self.rt)}, {self.imm}(${r(self.rs)})"
        if m == "lui":
            return f"{m} ${r(self.rt)}, 0x{self.imm & 0xFFFF:x}"
        if m in ("beq", "bne"):
            return f"{m} ${r(self.rs)}, ${r(self.rt)}, {self.imm}"
        if info.klass is InstrClass.BRANCH:
            return f"{m} ${r(self.rs)}, {self.imm}"
        return f"{m} ${r(self.rt)}, ${r(self.rs)}, {self.imm}"


_FIELD_NAMES = tuple(field.name for field in fields(Instruction))

NOP = Instruction("sll", rs=0, rt=0, rd=0, shamt=0)


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit word."""
    info = instr.info
    if info.fmt is Format.R:
        return ((info.opcode << 26) | (instr.rs << 21) | (instr.rt << 16)
                | (instr.rd << 11) | (instr.shamt << 6) | info.funct)
    if info.fmt is Format.J:
        return (info.opcode << 26) | ((instr.target >> 2) & 0x3FFFFFF)
    # I-format; REGIMM branches carry the selector in rt.
    rt = info.funct if info.regimm else instr.rt
    return ((info.opcode << 26) | (instr.rs << 21) | (rt << 16)
            | (instr.imm & 0xFFFF))


def decode(word: int) -> Optional[Instruction]:
    """Decode a 32-bit word; returns None for unimplemented encodings."""
    word &= MASK32
    opcode = word >> 26
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F
    rd = (word >> 11) & 0x1F
    shamt = (word >> 6) & 0x1F
    funct = word & 0x3F
    info = decode_fields(opcode, rt, funct)
    if info is None:
        return None
    if info.fmt is Format.J:
        return Instruction(info.mnemonic, target=(word & 0x3FFFFFF) << 2)
    if info.fmt is Format.R:
        return Instruction(info.mnemonic, rs=rs, rt=rt, rd=rd, shamt=shamt)
    imm = word & 0xFFFF
    if info.signed_imm:
        imm = sign_extend16(imm)
    if info.regimm:
        rt = 0
    return Instruction(info.mnemonic, rs=rs, rt=rt, imm=imm)
