"""MIPS I assembler and disassembler.

The assembler is a classic two-pass design: pass 1 parses sections, labels
and directives and lays out addresses (pseudo-instruction expansions have
deterministic sizes); pass 2 resolves symbols and emits binary words.  Its
output is a :class:`repro.asm.program.Program`, the loadable unit consumed
by every simulator in this repository.
"""

from repro.asm.program import Program, TEXT_BASE, DATA_BASE, STACK_TOP
from repro._lazy import lazy_dir, lazy_exports

#: the assembler and the disassembler load on first use: running a
#: built-in workload reads its program image and needs neither.
_EXPORTS = {
    **{name: "repro.asm.assembler" for name in ("assemble", "AssemblerError")},
    **{name: "repro.asm.disassembler"
       for name in ("disassemble_program", "disassemble_word")},
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__dir__ = lazy_dir(globals(), _EXPORTS)

__all__ = [
    "Program",
    "TEXT_BASE",
    "DATA_BASE",
    "STACK_TOP",
    "assemble",
    "AssemblerError",
    "disassemble_program",
    "disassemble_word",
]
