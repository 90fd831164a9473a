"""The loadable program image produced by the assembler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: SPIM-compatible memory layout.
TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1001_0000
STACK_TOP = 0x7FFF_EFFC


@dataclass
class Program:
    """An assembled program: text and data images plus symbol table.

    Byte order is little-endian throughout the system; programs are
    self-contained so the choice is only visible through byte-granular
    access to word data, which the workloads use consistently.
    """

    text: bytes
    data: bytes
    entry: int
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    symbols: Dict[str, int] = field(default_factory=dict)
    source_name: str = "<asm>"
    #: pc -> decoded-entry cache shared by every simulator of this program
    #: (text is immutable, so decode results are a program property; see
    #: :meth:`repro.sim.cpu.Simulator.decode_at`).
    decode_cache: Dict[int, tuple] = field(default_factory=dict,
                                           compare=False, repr=False)
    #: (pc, flags) -> compiled-block and ("prefix", pc, covered) ->
    #: array-prefix factory cache for the block compiler (see
    #: :mod:`repro.sim.fastpath`).  Holds exec-generated functions, so
    #: it is intentionally excluded from comparisons.
    fastpath_cache: Dict[tuple, tuple] = field(default_factory=dict,
                                               compare=False, repr=False)

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.text)

    def word_at(self, address: int) -> int:
        """Fetch the text word at ``address`` (must be in the text segment)."""
        offset = address - self.text_base
        if not 0 <= offset <= len(self.text) - 4:
            raise IndexError(f"address 0x{address:08x} outside text segment")
        return int.from_bytes(self.text[offset:offset + 4], "little")

    def num_instructions(self) -> int:
        return len(self.text) // 4
