"""Sparse paged memory with little-endian byte order.

Pages are 4 KiB bytearrays allocated on first touch, so the full 32-bit
address space (text at 0x0040_0000, data at 0x1001_0000, stack just below
0x8000_0000) is available without preallocating anything.

On a little-endian host every page also gets a word view
(``memoryview(page).cast("I")``) in :attr:`Memory.words`, through which
the block-compiled fast path (:mod:`repro.sim.fastpath`) reads and
writes aligned words without a method call.  The view's native byte
order is the memory's little-endian one only on such a host, so on a
big-endian host ``words`` stays empty and every access takes
:meth:`Memory.read_word`/:meth:`Memory.write_word`.
"""

from __future__ import annotations

import sys
from typing import Dict

from repro.asm.program import Program

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: whether new pages get a native word view (little-endian hosts only).
WORD_VIEWS = sys.byteorder == "little"


class MemoryError_(Exception):
    """Access outside any mapped region in strict mode (unused by default)."""


class AlignmentError_(Exception):
    """Raised on a misaligned half-word or word access."""


class Memory:
    """Byte-addressable sparse memory."""

    __slots__ = ("_pages", "words")

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        #: page index -> unsigned 32-bit view of that page (see module doc)
        self.words: Dict[int, memoryview] = {}

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
            if WORD_VIEWS:
                self.words[index] = memoryview(page).cast("I")
        return page

    # memoryviews do not pickle: ship the pages, rebuild the views.
    def __getstate__(self) -> Dict[int, bytearray]:
        return self._pages

    def __setstate__(self, pages: Dict[int, bytearray]) -> None:
        self.__init__()
        for index, page in pages.items():
            self._page(index)[:] = page

    # -- loads -----------------------------------------------------------
    def read_byte(self, address: int) -> int:
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[address & PAGE_MASK]

    def read_half(self, address: int) -> int:
        if address & 1:
            raise AlignmentError_(f"lh/lhu at 0x{address:08x}")
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        offset = address & PAGE_MASK
        return page[offset] | (page[offset + 1] << 8)

    def read_word(self, address: int) -> int:
        if address & 3:
            raise AlignmentError_(f"lw at 0x{address:08x}")
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        offset = address & PAGE_MASK
        return (page[offset] | (page[offset + 1] << 8)
                | (page[offset + 2] << 16) | (page[offset + 3] << 24))

    # -- stores ----------------------------------------------------------
    def write_byte(self, address: int, value: int) -> None:
        self._page(address >> PAGE_SHIFT)[address & PAGE_MASK] = value & 0xFF

    def write_half(self, address: int, value: int) -> None:
        if address & 1:
            raise AlignmentError_(f"sh at 0x{address:08x}")
        page = self._page(address >> PAGE_SHIFT)
        offset = address & PAGE_MASK
        page[offset] = value & 0xFF
        page[offset + 1] = (value >> 8) & 0xFF

    def write_word(self, address: int, value: int) -> None:
        if address & 3:
            raise AlignmentError_(f"sw at 0x{address:08x}")
        page = self._page(address >> PAGE_SHIFT)
        offset = address & PAGE_MASK
        page[offset] = value & 0xFF
        page[offset + 1] = (value >> 8) & 0xFF
        page[offset + 2] = (value >> 16) & 0xFF
        page[offset + 3] = (value >> 24) & 0xFF

    # -- bulk ------------------------------------------------------------
    def write_block(self, address: int, payload: bytes) -> None:
        """Write ``payload`` one page slice at a time."""
        data = memoryview(payload)
        while data:
            offset = address & PAGE_MASK
            size = min(PAGE_SIZE - offset, len(data))
            self._page(address >> PAGE_SHIFT)[offset:offset + size] = \
                data[:size]
            address, data = address + size, data[size:]

    def read_block(self, address: int, length: int) -> bytes:
        return bytes(self.read_byte(address + i) for i in range(length))

    def read_cstring(self, address: int, limit: int = 4096) -> str:
        chars = []
        for i in range(limit):
            byte = self.read_byte(address + i)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)

    def load_program(self, program: Program) -> None:
        self.write_block(program.text_base, program.text)
        if program.data:
            self.write_block(program.data_base, program.data)

    def snapshot_pages(self) -> Dict[int, bytes]:
        """Immutable copy of all touched pages (used by equivalence tests)."""
        return {index: bytes(page) for index, page in self._pages.items()}
