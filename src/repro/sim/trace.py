"""Dynamic basic-block trace collection.

A *dynamic basic block* is the run of instructions from a control-transfer
target (or the entry point) up to and including the next control transfer
or syscall.  DIM translates exactly these runs, so the trace — a block
table plus one packed column of ``block_id << 1 | taken`` event codes —
is sufficient to replay the complete DIM state machine without
re-executing the program (see :mod:`repro.system.traceeval`).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass


@dataclass(frozen=True, eq=False)
class BasicBlock:
    """Static description of one dynamic basic block.

    Identity-based equality/hash: each block is registered exactly once
    per :class:`BlockTable`, and identity keys make cost-model memoisation
    cheap and collision-free across tables.
    """

    block_id: int
    start_pc: int
    instructions: Tuple[Instruction, ...]

    def __post_init__(self) -> None:
        # precompute the hot-path views once (frozen dataclass, so via
        # object.__setattr__)
        last = self.instructions[-1]
        terminator = last if last.info.is_control else None
        object.__setattr__(self, "terminator", terminator)
        object.__setattr__(
            self, "is_conditional",
            terminator is not None
            and terminator.klass is InstrClass.BRANCH)

    #: the final control instruction, or None (syscall-ended block).
    terminator: Optional[Instruction] = field(init=False)
    #: True when the terminator is a conditional branch.
    is_conditional: bool = field(init=False)

    @property
    def branch_pc(self) -> int:
        return self.start_pc + 4 * (len(self.instructions) - 1)

    @property
    def fallthrough_pc(self) -> int:
        return self.start_pc + 4 * len(self.instructions)

    def taken_target(self) -> Optional[int]:
        """Target when the terminator is taken (None for jr/jalr/syscall)."""
        term = self.terminator
        if term is None or term.mnemonic in ("jr", "jalr"):
            return None
        return term.branch_target(self.branch_pc)

    def __len__(self) -> int:
        return len(self.instructions)


class BlockTable:
    """Registry of basic blocks keyed by start PC."""

    def __init__(self) -> None:
        self._by_pc: Dict[int, BasicBlock] = {}
        self.blocks: List[BasicBlock] = []

    def get_by_pc(self, pc: int) -> Optional[BasicBlock]:
        return self._by_pc.get(pc)

    def get(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def add(self, start_pc: int,
            instructions: Tuple[Instruction, ...]) -> BasicBlock:
        block = BasicBlock(len(self.blocks), start_pc, instructions)
        self.blocks.append(block)
        self._by_pc[start_pc] = block
        return block

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass
class Trace:
    """A full basic-block execution trace.

    ``events`` is one packed column: event ``i`` is the code
    ``block_id << 1 | taken``, where ``taken`` is 1 for a taken
    conditional branch or an unconditional transfer and 0 for a
    fall-through branch or a syscall-ended block.  The ``'I'`` typecode
    makes a block id of 2**31 or more raise ``OverflowError`` instead
    of wrapping.
    """

    table: BlockTable
    events: array = field(default_factory=lambda: array("I"))

    def block_execution_counts(self) -> Dict[int, int]:
        return Counter(code >> 1 for code in self.events)

    def __len__(self) -> int:
        return len(self.events)
