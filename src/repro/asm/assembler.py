"""Two-pass MIPS I assembler.

Supported syntax (SPIM-flavoured):

- sections ``.text`` / ``.data``, labels ``name:``
- directives ``.word``, ``.half``, ``.byte``, ``.ascii``, ``.asciiz``,
  ``.space``, ``.align``, ``.globl`` (accepted, no-op)
- every real instruction in :mod:`repro.isa.opcodes`
- the usual pseudo-instructions (``li``, ``la``, ``move``, ``b``,
  ``beqz``/``bnez``, ``blt``/``bge``/``bgt``/``ble`` and unsigned forms,
  ``mul``, three-operand ``div``/``divu``, ``rem``/``remu``, ``neg``,
  ``not``, ``seq``/``sne``/``sgt``/``sge``/``sle``)
- ``#`` and ``;`` comments, character literals, hex/decimal immediates,
  ``label+offset`` expressions

Pseudo-instruction expansion sizes are fully determined in pass 1, so the
classic two-pass scheme suffices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.asm.program import DATA_BASE, Program, TEXT_BASE
from repro.isa.instruction import Instruction, encode
from repro.isa.opcodes import OPCODES, Format, InstrClass
from repro.isa.registers import AT, ZERO, register_number


class AssemblerError(Exception):
    """Raised for any syntactic or semantic assembly error."""

    def __init__(self, message: str, line: Optional[int] = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class SymRef:
    """A symbol reference to be resolved in pass 2.

    ``mode`` selects the relocation: ``rel16`` (PC-relative branch),
    ``abs26`` (jump target), ``hi16`` / ``lo16`` (la expansion) or
    ``abs16`` (small absolute immediates in data-relative addressing).
    """

    name: str
    addend: int
    mode: str


Operand = Union[int, str, SymRef]


@dataclass
class ProtoInstr:
    """A real instruction whose immediate may still be symbolic."""

    mnemonic: str
    rs: int = 0
    rt: int = 0
    rd: int = 0
    shamt: int = 0
    imm: Union[int, SymRef] = 0
    target: Union[int, SymRef] = 0
    line: int = 0


@dataclass
class _DataItem:
    address: int
    size: int  # bytes per element
    values: List[Union[int, SymRef]] = field(default_factory=list)
    line: int = 0


_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_SYMBOL_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*([+-]\s*\w+)?$")
_MEM_RE = re.compile(r"^(.*?)\(\s*(\$?\w+)\s*\)$")
#: a line up to its comment: ``#`` or ``;`` outside a string literal.  A
#: ``"`` right after a backslash neither opens nor closes a string, and
#: an unterminated string runs to the end of the line.
_CODE_RE = re.compile(
    r'(?:[^"#;]+|(?<=\\)"|(?<!\\)"(?:[^"]+|(?<=\\)")*(?:(?<!\\)"|\Z))*')

#: mnemonics :meth:`Assembler._expand` rewrites (``div``/``divu`` only
#: in their three-operand form); every other one is a real instruction.
_PSEUDOS = frozenset((
    "nop", "move", "li", "la", "b", "beqz", "bnez", "blt", "bge", "bgt",
    "ble", "bltu", "bgeu", "bgtu", "bleu", "mul", "div", "divu", "rem",
    "remu", "neg", "negu", "not", "seq", "sne", "sgt", "sge", "sle",
    "sgtu", "sgeu", "sleu"))

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34, "'": 39}


def _unescape(body: str, line: int) -> bytes:
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise AssemblerError("dangling escape in string", line)
            esc = body[i]
            if esc not in _ESCAPES:
                raise AssemblerError(f"unknown escape \\{esc}", line)
            out.append(_ESCAPES[esc])
        else:
            out.append(ord(ch) & 0xFF)
        i += 1
    return bytes(out)


def _parse_int(token: str, line: int) -> Optional[int]:
    token = token.strip()
    if len(token) >= 3 and token[0] == "'" and token[-1] == "'":
        body = _unescape(token[1:-1], line)
        if len(body) != 1:
            raise AssemblerError(f"bad char literal {token}", line)
        return body[0]
    try:
        return int(token, 0)
    except ValueError:
        return None


class Assembler:
    """Stateful two-pass assembler; use :func:`assemble` for the one-shot API."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base
        self.symbols: Dict[str, int] = {}
        self._protos: List[Tuple[int, ProtoInstr]] = []
        self._data_items: List[_DataItem] = []
        self._text_loc = text_base
        self._data_loc = data_base
        self._section = "text"
        #: labels seen but not yet bound — binding is deferred until the
        #: next emitted item so that auto-alignment of .half/.word does
        #: not strand a label on padding bytes.
        self._pending_labels: List[str] = []

    # ------------------------------------------------------------------
    # Pass 1: parse, expand, lay out.
    # ------------------------------------------------------------------
    def feed(self, source: str) -> None:
        for lineno, raw in enumerate(source.splitlines(), start=1):
            self._feed_line(raw, lineno)

    def _feed_line(self, raw: str, lineno: int) -> None:
        line = self._strip_comment(raw).strip()
        while line:
            colon = line.find(":")
            if colon >= 0 and _LABEL_RE.match(line[:colon].strip()):
                self._define_label(line[:colon].strip(), lineno)
                line = line[colon + 1:].strip()
            else:
                break
        if not line:
            return
        if line.startswith("."):
            self._directive(line, lineno)
        else:
            self._instruction(line, lineno)

    @staticmethod
    def _strip_comment(line: str) -> str:
        return _CODE_RE.match(line).group()

    def _define_label(self, name: str, line: int) -> None:
        if name in self.symbols or name in self._pending_labels:
            raise AssemblerError(f"duplicate label {name!r}", line)
        self._pending_labels.append(name)

    def _bind_pending_labels(self) -> None:
        if not self._pending_labels:
            return
        loc = self._text_loc if self._section == "text" else self._data_loc
        for name in self._pending_labels:
            self.symbols[name] = loc
        self._pending_labels.clear()

    # -- directives -----------------------------------------------------
    def _directive(self, line: str, lineno: int) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            self._bind_pending_labels()
            self._section = "text"
            if rest:
                self._text_loc = self._require_int(rest, lineno)
        elif name == ".data":
            self._bind_pending_labels()
            self._section = "data"
            if rest:
                self._data_loc = self._require_int(rest, lineno)
        elif name == ".globl" or name == ".global" or name == ".set":
            return
        elif name == ".align":
            power = self._require_int(rest, lineno)
            self._align(1 << power)
        elif name == ".space":
            count = self._require_int(rest, lineno)
            self._emit_data(1, [0] * count, lineno)
        elif name in (".word", ".half", ".byte"):
            size = {".word": 4, ".half": 2, ".byte": 1}[name]
            self._align(size)
            values = [self._operand_value(tok, lineno)
                      for tok in self._split_operands(rest)]
            if not values:
                raise AssemblerError(f"{name} needs at least one value",
                                     lineno)
            self._emit_data(size, values, lineno)
        elif name in (".ascii", ".asciiz"):
            match = _STRING_RE.search(rest)
            if not match:
                raise AssemblerError("expected string literal", lineno)
            payload = _unescape(match.group(1), lineno)
            if name == ".asciiz":
                payload += b"\x00"
            self._emit_data(1, list(payload), lineno)
        else:
            raise AssemblerError(f"unknown directive {name}", lineno)

    def _align(self, boundary: int) -> None:
        if self._section == "text":
            pad = (-self._text_loc) % boundary
            self._text_loc += pad
        else:
            pad = (-self._data_loc) % boundary
            if pad:
                # pad without binding pending labels: a label in front of
                # an aligned directive names the aligned item, not the gap
                self._data_items.append(
                    _DataItem(self._data_loc, 1, [0] * pad, 0))
                self._data_loc += pad

    def _emit_data(self, size: int, values: Sequence[Union[int, SymRef]],
                   line: int) -> None:
        if self._section != "data":
            raise AssemblerError("data directive outside .data", line)
        self._bind_pending_labels()
        item = _DataItem(self._data_loc, size, list(values), line)
        self._data_items.append(item)
        self._data_loc += size * len(values)

    def _require_int(self, token: str, line: int) -> int:
        value = _parse_int(token, line)
        if value is None:
            raise AssemblerError(f"expected integer, got {token!r}", line)
        return value

    # -- instructions ----------------------------------------------------
    @staticmethod
    def _split_operands(rest: str) -> List[str]:
        if not rest.strip():
            return []
        return [tok.strip() for tok in rest.split(",")]

    def _operand_value(self, token: str, line: int,
                       mode: str = "abs16") -> Union[int, SymRef]:
        """Parse an immediate operand: literal, symbol, or symbol±literal.

        A numeric branch operand is an *absolute address* (SPIM
        semantics), carried through as an anonymous reference so pass 2
        converts it to a PC-relative offset.
        """
        value = _parse_int(token, line)
        if value is not None:
            if mode == "rel16":
                return SymRef("", value, "rel16")
            return value
        match = _SYMBOL_RE.match(token)
        if not match:
            raise AssemblerError(f"bad operand {token!r}", line)
        addend = 0
        if match.group(2):
            addend = self._require_int(match.group(2).replace(" ", ""), line)
        return SymRef(match.group(1), addend, mode)

    def _instruction(self, line: str, lineno: int) -> None:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = self._split_operands(parts[1] if len(parts) > 1 else "")
        if self._section != "text":
            raise AssemblerError("instruction outside .text", lineno)
        self._bind_pending_labels()
        for proto in self._expand(mnemonic, operands, lineno):
            proto.line = lineno
            self._protos.append((self._text_loc, proto))
            self._text_loc += 4

    # The expansion table.  Each entry returns a list of ProtoInstr.
    def _expand(self, m: str, ops: List[str],
                line: int) -> List[ProtoInstr]:  # noqa: C901
        if m not in _PSEUDOS:
            return [self._real(m, ops, line)]
        reg = lambda tok: self._reg(tok, line)  # noqa: E731
        imm = lambda tok, mode="abs16": self._operand_value(tok, line, mode)  # noqa: E731

        if m == "nop":
            return [ProtoInstr("sll")]
        if m == "move":
            self._arity(ops, 2, m, line)
            return [ProtoInstr("addu", rd=reg(ops[0]), rs=reg(ops[1]),
                               rt=ZERO)]
        if m == "li":
            self._arity(ops, 2, m, line)
            value = self._require_int(ops[1], line)
            return self._expand_li(reg(ops[0]), value)
        if m == "la":
            self._arity(ops, 2, m, line)
            rt = reg(ops[0])
            ref = imm(ops[1])
            if isinstance(ref, int):
                return self._expand_li(rt, ref)
            hi = SymRef(ref.name, ref.addend, "hi16")
            lo = SymRef(ref.name, ref.addend, "lo16")
            return [ProtoInstr("lui", rt=rt, imm=hi),
                    ProtoInstr("ori", rt=rt, rs=rt, imm=lo)]
        if m == "b":
            self._arity(ops, 1, m, line)
            return [ProtoInstr("beq", rs=ZERO, rt=ZERO,
                               imm=imm(ops[0], "rel16"))]
        if m in ("beqz", "bnez"):
            self._arity(ops, 2, m, line)
            real = "beq" if m == "beqz" else "bne"
            return [ProtoInstr(real, rs=reg(ops[0]), rt=ZERO,
                               imm=imm(ops[1], "rel16"))]
        if m in ("blt", "bge", "bgt", "ble", "bltu", "bgeu", "bgtu", "bleu"):
            self._arity(ops, 3, m, line)
            unsigned = m.endswith("u")
            base = m[:3]
            slt = "sltu" if unsigned else "slt"
            # the second operand may be an immediate (SPIM-style):
            # materialise it in $at first
            prefix: List[ProtoInstr] = []
            value = _parse_int(ops[1], line)
            if value is None:
                b = reg(ops[1])
            elif value == 0:
                b = ZERO
            else:
                prefix = self._expand_li(AT, value)
                b = AT
            a = reg(ops[0])
            if base in ("bgt", "ble"):
                a, b = b, a
            branch = "bne" if base in ("blt", "bgt") else "beq"
            return prefix + [
                ProtoInstr(slt, rd=AT, rs=a, rt=b),
                ProtoInstr(branch, rs=AT, rt=ZERO,
                           imm=imm(ops[2], "rel16"))]
        if m == "mul":
            self._arity(ops, 3, m, line)
            return [ProtoInstr("mult", rs=reg(ops[1]), rt=reg(ops[2])),
                    ProtoInstr("mflo", rd=reg(ops[0]))]
        if m in ("div", "divu") and len(ops) == 3:
            return [ProtoInstr(m, rs=reg(ops[1]), rt=reg(ops[2])),
                    ProtoInstr("mflo", rd=reg(ops[0]))]
        if m in ("rem", "remu"):
            self._arity(ops, 3, m, line)
            real = "div" if m == "rem" else "divu"
            return [ProtoInstr(real, rs=reg(ops[1]), rt=reg(ops[2])),
                    ProtoInstr("mfhi", rd=reg(ops[0]))]
        if m in ("neg", "negu"):
            self._arity(ops, 2, m, line)
            real = "sub" if m == "neg" else "subu"
            return [ProtoInstr(real, rd=reg(ops[0]), rs=ZERO,
                               rt=reg(ops[1]))]
        if m == "not":
            self._arity(ops, 2, m, line)
            return [ProtoInstr("nor", rd=reg(ops[0]), rs=reg(ops[1]),
                               rt=ZERO)]
        if m in ("seq", "sne"):
            self._arity(ops, 3, m, line)
            rd = reg(ops[0])
            first = ProtoInstr("xor", rd=rd, rs=reg(ops[1]), rt=reg(ops[2]))
            if m == "seq":
                return [first, ProtoInstr("sltiu", rt=rd, rs=rd, imm=1)]
            return [first, ProtoInstr("sltu", rd=rd, rs=ZERO, rt=rd)]
        if m in ("sgt", "sge", "sle", "sgtu", "sgeu", "sleu"):
            self._arity(ops, 3, m, line)
            unsigned = m.endswith("u")
            base = m[:3]
            slt = "sltu" if unsigned else "slt"
            rd, a, b = reg(ops[0]), reg(ops[1]), reg(ops[2])
            if base in ("sgt", "sle"):
                a, b = b, a
            first = ProtoInstr(slt, rd=rd, rs=a, rt=b)
            if base in ("sge", "sle"):
                return [first, ProtoInstr("xori", rt=rd, rs=rd, imm=1)]
            return [first]
        return [self._real(m, ops, line)]

    def _expand_li(self, rt: int, value: int) -> List[ProtoInstr]:
        value &= 0xFFFFFFFF
        signed = value - 0x100000000 if value & 0x80000000 else value
        if -32768 <= signed <= 32767:
            return [ProtoInstr("addiu", rt=rt, rs=ZERO, imm=signed)]
        if value <= 0xFFFF:
            return [ProtoInstr("ori", rt=rt, rs=ZERO, imm=value)]
        out = [ProtoInstr("lui", rt=rt, imm=value >> 16)]
        if value & 0xFFFF:
            out.append(ProtoInstr("ori", rt=rt, rs=rt, imm=value & 0xFFFF))
        return out

    def _reg(self, token: str, line: int) -> int:
        try:
            return register_number(token)
        except KeyError:
            raise AssemblerError(f"unknown register {token!r}", line)

    @staticmethod
    def _arity(ops: List[str], n: int, m: str, line: int) -> None:
        if len(ops) != n:
            raise AssemblerError(
                f"{m} expects {n} operands, got {len(ops)}", line)

    def _real(self, m: str, ops: List[str], line: int) -> ProtoInstr:
        """Parse a non-pseudo instruction."""
        info = OPCODES.get(m)
        if info is None:
            raise AssemblerError(f"unknown instruction {m!r}", line)
        reg = lambda tok: self._reg(tok, line)  # noqa: E731
        if info.fmt is Format.J:
            self._arity(ops, 1, m, line)
            return ProtoInstr(m, target=self._operand_value(ops[0], line,
                                                            "abs26"))
        if m in ("syscall", "break"):
            return ProtoInstr(m)
        if m in ("sll", "srl", "sra"):
            self._arity(ops, 3, m, line)
            return ProtoInstr(m, rd=reg(ops[0]), rt=reg(ops[1]),
                              shamt=self._require_int(ops[2], line) & 0x1F)
        if m in ("sllv", "srlv", "srav"):
            self._arity(ops, 3, m, line)
            return ProtoInstr(m, rd=reg(ops[0]), rt=reg(ops[1]),
                              rs=reg(ops[2]))
        if m in ("mult", "multu", "div", "divu"):
            self._arity(ops, 2, m, line)
            return ProtoInstr(m, rs=reg(ops[0]), rt=reg(ops[1]))
        if m in ("mfhi", "mflo"):
            self._arity(ops, 1, m, line)
            return ProtoInstr(m, rd=reg(ops[0]))
        if m in ("mthi", "mtlo"):
            self._arity(ops, 1, m, line)
            return ProtoInstr(m, rs=reg(ops[0]))
        if m == "jr":
            self._arity(ops, 1, m, line)
            return ProtoInstr(m, rs=reg(ops[0]))
        if m == "jalr":
            if len(ops) == 1:
                return ProtoInstr(m, rd=31, rs=reg(ops[0]))
            self._arity(ops, 2, m, line)
            return ProtoInstr(m, rd=reg(ops[0]), rs=reg(ops[1]))
        if info.klass in (InstrClass.LOAD, InstrClass.STORE):
            self._arity(ops, 2, m, line)
            base, offset = self._mem_operand(ops[1], line)
            return ProtoInstr(m, rt=reg(ops[0]), rs=base, imm=offset)
        if m == "lui":
            self._arity(ops, 2, m, line)
            return ProtoInstr(m, rt=reg(ops[0]),
                              imm=self._require_int(ops[1], line) & 0xFFFF)
        if m in ("beq", "bne"):
            self._arity(ops, 3, m, line)
            return ProtoInstr(m, rs=reg(ops[0]), rt=reg(ops[1]),
                              imm=self._operand_value(ops[2], line, "rel16"))
        if info.klass is InstrClass.BRANCH:
            self._arity(ops, 2, m, line)
            return ProtoInstr(m, rs=reg(ops[0]),
                              imm=self._operand_value(ops[1], line, "rel16"))
        if info.fmt is Format.I:
            self._arity(ops, 3, m, line)
            return ProtoInstr(m, rt=reg(ops[0]), rs=reg(ops[1]),
                              imm=self._operand_value(ops[2], line))
        # Generic three-register R-format.
        self._arity(ops, 3, m, line)
        return ProtoInstr(m, rd=reg(ops[0]), rs=reg(ops[1]), rt=reg(ops[2]))

    def _mem_operand(self, token: str, line: int) -> Tuple[int, Union[int, SymRef]]:
        match = _MEM_RE.match(token.strip())
        if not match:
            raise AssemblerError(f"bad memory operand {token!r}", line)
        offset_text = match.group(1).strip()
        offset: Union[int, SymRef] = 0
        if offset_text:
            offset = self._operand_value(offset_text, line)
        return self._reg(match.group(2), line), offset

    # ------------------------------------------------------------------
    # Pass 2: resolve and emit.
    # ------------------------------------------------------------------
    def link(self, entry_symbol: str = "__start") -> Program:
        self._bind_pending_labels()
        text = bytearray()
        for address, proto in self._protos:
            word = encode(self._resolve(proto, address))
            # pad for any .align gaps inside text
            gap = (address - self.text_base) - len(text)
            if gap:
                text.extend(b"\x00" * gap)
            text.extend(word.to_bytes(4, "little"))
        data = bytearray()
        resolve = self._resolve_value
        for item in self._data_items:
            gap = (item.address - self.data_base) - len(data)
            if gap:
                data.extend(b"\x00" * gap)
            size, line = item.size, item.line
            mask = (1 << (8 * size)) - 1
            data.extend(b"".join([
                ((value if value.__class__ is int else resolve(value, line))
                 & mask).to_bytes(size, "little")
                for value in item.values]))
        entry = self.symbols.get(entry_symbol,
                                 self.symbols.get("main", self.text_base))
        return Program(bytes(text), bytes(data), entry,
                       self.text_base, self.data_base, dict(self.symbols))

    def _resolve_value(self, value: Union[int, SymRef], line: int) -> int:
        if isinstance(value, int):
            return value
        if value.name == "":
            return value.addend  # anonymous absolute address
        if value.name not in self.symbols:
            raise AssemblerError(f"undefined symbol {value.name!r}", line)
        return self.symbols[value.name] + value.addend

    def _resolve(self, proto: ProtoInstr, address: int) -> Instruction:
        imm = proto.imm
        target = proto.target
        if isinstance(imm, SymRef):
            value = self._resolve_value(imm, proto.line)
            if imm.mode == "rel16":
                delta = (value - (address + 4)) >> 2
                if not -32768 <= delta <= 32767:
                    raise AssemblerError("branch out of range", proto.line)
                imm = delta
            elif imm.mode == "hi16":
                imm = (value >> 16) & 0xFFFF
            elif imm.mode == "lo16":
                imm = value & 0xFFFF
            else:
                imm = value
        if isinstance(target, SymRef):
            target = self._resolve_value(target, proto.line)
        return Instruction(proto.mnemonic, rs=proto.rs, rt=proto.rt,
                           rd=proto.rd, shamt=proto.shamt,
                           imm=imm, target=target)


def assemble(source: str, entry_symbol: str = "__start") -> Program:
    """Assemble MIPS source text into a loadable :class:`Program`.

    The entry point is ``__start`` if defined, else ``main``, else the
    first text address.
    """
    asm = Assembler()
    asm.feed(source)
    return asm.link(entry_symbol)
