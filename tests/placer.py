"""The reference placer for the allocator's differential tests.

:class:`repro.cgra.allocation.Allocator` places precomputed
:class:`~repro.cgra.dataflow.Placement` records out of flat tables.
:class:`ReferenceAllocator` is the obvious version it must agree with:
dict-of-lists line usage, sets of context slots, and the placement
facts re-derived from each instruction on every call.  Same spirit as
``tests/oracle.py``: the slow, readable form lives with the tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.cgra.allocation import AllocationResult
from repro.cgra.dataflow import (
    dim_destinations,
    dim_fu_class,
    dim_sources,
    dim_supported,
    has_immediate,
    memory_kind,
)
from repro.cgra.shape import ArrayShape
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass

#: per-line state indices
_ALU, _MULT, _MEM = 0, 1, 2


class ReferenceAllocator:
    """The per-instruction placer: every placement re-derives its facts
    through the :mod:`repro.cgra.dataflow` helpers."""

    def __init__(self, shape: ArrayShape):
        self.shape = shape
        # line index -> [alu_used, mult_used, mem_used]
        self._lines: Dict[int, List[int]] = {}
        self._writer_line: Dict[int, int] = {}
        self._written: set = set()
        self._inputs: set = set()
        self._last_store_line = -1
        self._last_mem_line = -1
        self._immediates = 0
        self._count = 0
        self._class_counts = {"alu": 0, "mult": 0, "mem": 0}
        self._loads = 0
        self._stores = 0
        self._nonspec_written: Optional[set] = None
        #: slots whose most recent writer is speculative (last write
        #: wins, so these are exactly the gated write-backs).
        self._spec_written: set = set()
        self._placements: List[Tuple[Instruction, int]] = []

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Cheap state capture for speculative rollback."""
        return (
            {k: list(v) for k, v in self._lines.items()},
            dict(self._writer_line),
            set(self._written),
            set(self._inputs),
            self._last_store_line,
            self._last_mem_line,
            self._immediates,
            self._count,
            dict(self._class_counts),
            self._loads,
            self._stores,
            None if self._nonspec_written is None
            else set(self._nonspec_written),
            set(self._spec_written),
            list(self._placements),
        )

    def restore(self, state: Tuple) -> None:
        # install copies, so one snapshot can be restored many times
        (lines, writer_line, written, inputs,
         self._last_store_line, self._last_mem_line, self._immediates,
         self._count, class_counts, self._loads,
         self._stores, nonspec_written, spec_written,
         placements) = state
        self._lines = {k: list(v) for k, v in lines.items()}
        self._writer_line = dict(writer_line)
        self._written = set(written)
        self._inputs = set(inputs)
        self._class_counts = dict(class_counts)
        self._nonspec_written = None if nonspec_written is None \
            else set(nonspec_written)
        self._spec_written = set(spec_written)
        self._placements = list(placements)

    # ------------------------------------------------------------------
    def place(self, instr: Instruction) -> bool:
        """Place one instruction; False when it does not fit.

        A failed placement leaves the allocator unchanged, so the caller
        can finish the configuration with everything placed so far.
        """
        if instr.klass is InstrClass.NOP:
            self._count += 1  # covered, but consumes nothing
            return True
        needs_imm = has_immediate(instr)
        if needs_imm and self._immediates >= self.shape.immediate_slots:
            return False
        fu = dim_fu_class(instr)
        min_line = 0
        sources = dim_sources(instr)
        for slot in sources:
            writer = self._writer_line.get(slot)
            if writer is not None:
                min_line = max(min_line, writer + 1)
        # Memory operations issue to the LD/ST group in program order:
        # they may share a line (the group has `ldsts_per_row` parallel
        # ports) but never appear in an earlier line than a preceding
        # memory operation.  Store-to-load forwarding within a line is
        # assumed, matching the paper's in-order LD/ST group.
        kind = memory_kind(instr)
        if kind == "load":
            min_line = max(min_line, self._last_store_line)
        elif kind == "store":
            min_line = max(min_line, self._last_mem_line)
        line = self._find_line(min_line, fu)
        if line is None:
            return False
        # --- commit ----------------------------------------------------
        for slot in sources:
            if slot not in self._written:
                self._inputs.add(slot)
        usage = self._lines.setdefault(line, [0, 0, 0])
        usage[{"alu": _ALU, "mult": _MULT, "mem": _MEM}[fu]] += 1
        for slot in dim_destinations(instr):
            self._writer_line[slot] = line
            self._written.add(slot)
            if self._nonspec_written is not None:
                self._spec_written.add(slot)
        if kind == "load":
            self._last_mem_line = max(self._last_mem_line, line)
            self._loads += 1
        elif kind == "store":
            self._last_mem_line = max(self._last_mem_line, line)
            self._last_store_line = max(self._last_store_line, line)
            self._stores += 1
        if needs_imm:
            self._immediates += 1
        self._class_counts[fu] += 1
        self._count += 1
        self._placements.append((instr, line))
        return True

    def _find_line(self, min_line: int, fu: str) -> Optional[int]:
        shape = self.shape
        capacity = {"alu": shape.alus_per_row, "mult": shape.mults_per_row,
                    "mem": shape.ldsts_per_row}[fu]
        if capacity <= 0:
            return None
        index = {"alu": _ALU, "mult": _MULT, "mem": _MEM}[fu]
        line = min_line
        while line < shape.rows:
            usage = self._lines.get(line)
            if usage is None or usage[index] < capacity:
                return line
            line += 1
        return None

    # ------------------------------------------------------------------
    # Dual-path placement support.  The two sides of a predicated merge
    # execute under mutually exclusive predicates, so neither observes
    # the other's register writes or memory operations — but they share
    # the array's lines, functional units and immediate slots.  The
    # translator brackets each side with ``fork_dataflow`` /
    # ``join_dataflow``: resource state keeps accumulating across the
    # fork while the dependence/IO view is rewound to the fork point.
    # ------------------------------------------------------------------
    def fork_dataflow(self) -> Tuple:
        """Capture the dependence/IO view at the predicated branch."""
        return (
            dict(self._writer_line),
            set(self._written),
            set(self._inputs),
            self._last_store_line,
            self._last_mem_line,
            set(self._spec_written),
        )

    def rewind_dataflow(self, mark: Tuple) -> Tuple:
        """Reset the dependence/IO view to ``mark``; returns the view
        being replaced (the first path's, for ``join_dataflow``)."""
        current = self.fork_dataflow()
        (writer_line, written, inputs, last_store, last_mem,
         spec_written) = mark
        self._writer_line = dict(writer_line)
        self._written = set(written)
        self._inputs = set(inputs)
        self._last_store_line = last_store
        self._last_mem_line = last_mem
        self._spec_written = set(spec_written)
        return current

    def join_dataflow(self, view: Tuple) -> None:
        """Union a rewound path's IO effects back into the allocator.

        Inputs of both paths are fetched at reconfiguration; written
        slots of both paths are potential (gated) write-backs, so the
        speculative-output drain prices the union.
        """
        writer_line, written, inputs, _store, _mem, spec_written = view
        self._inputs |= inputs
        self._written |= written
        self._spec_written |= spec_written
        for slot, line in writer_line.items():
            mine = self._writer_line.get(slot)
            if mine is None or line > mine:
                self._writer_line[slot] = line

    @property
    def input_count(self) -> int:
        """Distinct register-file operands the configuration fetches."""
        return len(self._inputs)

    # ------------------------------------------------------------------
    def mark_nonspec_boundary(self) -> None:
        """Record that everything placed so far commits unconditionally.

        The translator calls this after the first (non-speculative) block;
        live-outs written only by later blocks are speculative and their
        write-back serialises after branch resolution.
        """
        if self._nonspec_written is None:
            self._nonspec_written = set(self._written)

    @property
    def count(self) -> int:
        return self._count

    def exec_cycles(self) -> int:
        """Execution time of the current allocation, in processor cycles."""
        total = 0.0
        for usage in self._lines.values():
            total += self.shape.line_delay(usage[_MEM] > 0, usage[_MULT] > 0)
        return max(1, math.ceil(total)) if self._lines else 0

    def finish(self) -> AllocationResult:
        return AllocationResult(
            speculative_outputs=len(self._spec_written),
            placements=tuple(self._placements),
            num_instructions=self._count,
            lines_used=len(self._lines),
            exec_cycles=self.exec_cycles(),
            inputs=frozenset(self._inputs),
            outputs=frozenset(self._written),
            immediates=self._immediates,
            alu_ops=self._class_counts["alu"],
            mult_ops=self._class_counts["mult"],
            mem_ops=self._class_counts["mem"],
            loads=self._loads,
            stores=self._stores,
        )


def place_body(alloc: ReferenceAllocator,
               instructions) -> Tuple[int, str]:
    """The translator's body walk over ``instructions``: (covered,
    stop reason), with ``dim_supported`` checked per instruction."""
    covered = 0
    for instr in instructions:
        if not dim_supported(instr):
            return covered, "unsupported"
        if not alloc.place(instr):
            return covered, "resources"
        covered += 1
    return covered, "full"
