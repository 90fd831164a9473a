"""Table-driven instruction placement — the heart of the DIM hardware.

This module implements Section 4.2's algorithm.  The translator feeds
instructions one at a time; each one is checked for RAW dependences
against the per-line write bitmap (the *dependence table*), placed at the
first line that satisfies its dependences with a free functional unit of
the right type (the *resource table*), and wired to the context buses
(the *reads/writes tables*).  Memory operations keep program order
conservatively: loads never pass stores, stores never pass any memory
operation.  HI/LO are tracked as context slots 32/33 so multiply chains
translate (see :mod:`repro.cgra.dataflow`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, List, Tuple

from repro.cgra.dataflow import (
    CONTEXT_SLOTS,
    FU_MULT,
    MEM_LOAD,
    Placement,
)
from repro.cgra.shape import ArrayShape
from repro.isa.instruction import Instruction


@dataclass(frozen=True)
class AllocationResult:
    """Summary of a finished allocation (what a stored config must know)."""

    num_instructions: int
    lines_used: int
    exec_cycles: int
    inputs: FrozenSet[int]
    outputs: FrozenSet[int]
    immediates: int
    alu_ops: int
    mult_ops: int
    mem_ops: int
    loads: int
    stores: int
    #: live-outs produced by *speculated* blocks.  Per Section 4.2 these
    #: carry a depth flag and are written back only when their branch
    #: resolves, so they drain serially through the register-file write
    #: ports after execution instead of overlapping with it.
    speculative_outputs: int = 0
    #: (instruction, line) placements, in translation order — used by
    #: the renderer and by diagnostics; empty for synthetic results.
    placements: Tuple[Tuple[Instruction, int], ...] = ()


@lru_cache(maxsize=1 << 12)
def _slot_set(mask: int) -> FrozenSet[int]:
    """The context slots of a bitmask.  Memoized: configurations share
    few distinct input/output sets (a cold 216-cell sweep finishes
    8,399 allocations with 63 distinct masks)."""
    slots = []
    while mask:
        low = mask & -mask
        slots.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(slots)


class Allocator:
    """Incremental placement of one configuration onto an array shape.

    :meth:`place` takes a :class:`~repro.cgra.dataflow.Placement`
    record, so the instruction's facts are looked up, not re-derived.
    The tables are kept in flat, cheaply copied forms:

    - ``_usage`` is the resource table, one list with line ``l``'s
      ALU/MULT/MEM counts at ``3*l + fu``.  It grows a line at a time:
      a placement's earliest line is at most one past the last occupied
      line, so the occupied lines are always ``0..n-1`` and an
      :data:`~repro.cgra.shape.INFINITE_SHAPE` allocation stores only
      the lines it uses.
    - ``_writer`` is the dependence table: per context slot, the line of
      its latest writer (-1 for none).
    - the written, input and speculatively written slot sets are
      bitmasks over the context slots.
    """

    __slots__ = ("shape", "_caps", "_rows", "_imm_cap", "_light",
                 "_usage", "_writer", "_written", "_inputs",
                 "_spec_written", "_speculative", "_last_store_line",
                 "_last_mem_line", "_immediates", "_count", "_alu_ops",
                 "_mult_ops", "_loads", "_stores", "_placements")

    def __init__(self, shape: ArrayShape):
        self.shape = shape
        self._caps = (shape.alus_per_row, shape.mults_per_row,
                      shape.ldsts_per_row)
        self._rows = shape.rows
        self._imm_cap = shape.immediate_slots
        #: delay of a line holding only ALU operations.
        self._light = shape.line_delay(False, False)
        self._usage: List[int] = []
        self._writer = [-1] * CONTEXT_SLOTS
        self._written = 0
        self._inputs = 0
        #: slots whose most recent writer is speculative (last write
        #: wins, so these are exactly the gated write-backs).
        self._spec_written = 0
        #: True once mark_nonspec_boundary was called.
        self._speculative = False
        self._last_store_line = -1
        self._last_mem_line = -1
        self._immediates = 0
        self._count = 0
        self._alu_ops = 0
        self._mult_ops = 0
        self._loads = 0
        self._stores = 0
        self._placements: List[Tuple[Instruction, int]] = []

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """State capture for speculative rollback.

        The snapshot holds only immutable values and :meth:`restore`
        copies out of it, so one snapshot can be restored many times.
        """
        return (tuple(self._usage), tuple(self._writer), self._written,
                self._inputs, self._spec_written, self._speculative,
                self._last_store_line, self._last_mem_line,
                self._immediates, self._count, self._alu_ops,
                self._mult_ops, self._loads, self._stores,
                tuple(self._placements))

    def restore(self, state: Tuple) -> None:
        (usage, writer, self._written, self._inputs, self._spec_written,
         self._speculative, self._last_store_line, self._last_mem_line,
         self._immediates, self._count, self._alu_ops, self._mult_ops,
         self._loads, self._stores, placements) = state
        self._usage = list(usage)
        self._writer = list(writer)
        self._placements = list(placements)

    # ------------------------------------------------------------------
    def place(self, record: Placement) -> bool:
        """Place one instruction; False when it does not fit.

        A failed placement leaves the allocator unchanged, so the caller
        can finish the configuration with everything placed so far.
        """
        (instr, nop, immediate, fu, sources, reads, destinations, writes,
         memory) = record
        if nop:
            self._count += 1  # covered, but consumes nothing
            return True
        if immediate and self._immediates >= self._imm_cap:
            return False
        capacity = self._caps[fu]
        if capacity <= 0:
            return False
        writer = self._writer
        min_line = 0
        for slot in sources:
            line = writer[slot]
            if line >= min_line:
                min_line = line + 1
        # Memory operations issue to the LD/ST group in program order:
        # they may share a line (the group has `ldsts_per_row` parallel
        # ports) but never appear in an earlier line than a preceding
        # memory operation.  Store-to-load forwarding within a line is
        # assumed, matching the paper's in-order LD/ST group.
        if memory:
            bound = self._last_store_line if memory == MEM_LOAD \
                else self._last_mem_line
            if bound > min_line:
                min_line = bound
        # first line at or after min_line with a free unit of this class
        usage = self._usage
        index = 3 * min_line + fu
        end = len(usage)
        while index < end and usage[index] >= capacity:
            index += 3
        line = index // 3
        if index >= end:
            if line >= self._rows:
                return False
            usage += (0, 0, 0)
        # --- commit ----------------------------------------------------
        usage[index] += 1
        self._inputs |= reads & ~self._written
        for slot in destinations:
            writer[slot] = line
        self._written |= writes
        if self._speculative:
            self._spec_written |= writes
        if memory:
            if line > self._last_mem_line:
                self._last_mem_line = line
            if memory == MEM_LOAD:
                self._loads += 1
            else:
                if line > self._last_store_line:
                    self._last_store_line = line
                self._stores += 1
        elif fu == FU_MULT:
            self._mult_ops += 1
        else:
            self._alu_ops += 1
        if immediate:
            self._immediates += 1
        self._count += 1
        self._placements.append((instr, line))
        return True

    # ------------------------------------------------------------------
    # Dual-path placement support.  The two sides of a predicated merge
    # execute under mutually exclusive predicates, so neither observes
    # the other's register writes or memory operations — but they share
    # the array's lines, functional units and immediate slots.  The
    # translator brackets each side with ``fork_dataflow`` /
    # ``join_dataflow``: resource state keeps accumulating across the
    # fork while the dependence/IO view is rewound to the fork point.
    # A mark or view belongs to the allocation it was taken from: a
    # ``restore`` to a snapshot older than it invalidates it.
    # ------------------------------------------------------------------
    def fork_dataflow(self) -> Tuple:
        """Capture the dependence/IO view at the predicated branch."""
        return (tuple(self._writer), self._written, self._inputs,
                self._last_store_line, self._last_mem_line,
                self._spec_written)

    def rewind_dataflow(self, mark: Tuple) -> Tuple:
        """Reset the dependence/IO view to ``mark``; returns the view
        being replaced (the first path's, for ``join_dataflow``)."""
        current = self.fork_dataflow()
        (writer, self._written, self._inputs, self._last_store_line,
         self._last_mem_line, self._spec_written) = mark
        self._writer = list(writer)
        return current

    def join_dataflow(self, view: Tuple) -> None:
        """Union a rewound path's IO effects back into the allocator.

        Inputs of both paths are fetched at reconfiguration; written
        slots of both paths are potential (gated) write-backs, so the
        speculative-output drain prices the union.
        """
        writer, written, inputs, _store, _mem, spec_written = view
        self._inputs |= inputs
        self._written |= written
        self._spec_written |= spec_written
        self._writer = [theirs if theirs > mine else mine
                        for mine, theirs in zip(self._writer, writer)]

    @property
    def input_count(self) -> int:
        """Distinct register-file operands the configuration fetches."""
        return bin(self._inputs).count("1")

    # ------------------------------------------------------------------
    def mark_nonspec_boundary(self) -> None:
        """Record that everything placed so far commits unconditionally.

        The translator calls this after the first (non-speculative) block;
        live-outs written only by later blocks are speculative and their
        write-back serialises after branch resolution.
        """
        self._speculative = True

    @property
    def count(self) -> int:
        return self._count

    def exec_cycles(self) -> int:
        """Execution time of the current allocation, in processor cycles."""
        usage = self._usage
        if not usage:
            return 0
        light = self._light
        total = 0.0
        for mult, mem in zip(usage[1::3], usage[2::3]):
            total += 1.0 if mem or mult else light
        return max(1, math.ceil(total))

    def finish(self) -> AllocationResult:
        return AllocationResult(
            speculative_outputs=bin(self._spec_written).count("1"),
            placements=tuple(self._placements),
            num_instructions=self._count,
            lines_used=len(self._usage) // 3,
            exec_cycles=self.exec_cycles(),
            inputs=_slot_set(self._inputs),
            outputs=_slot_set(self._written),
            immediates=self._immediates,
            alu_ops=self._alu_ops,
            mult_ops=self._mult_ops,
            mem_ops=self._loads + self._stores,
            loads=self._loads,
            stores=self._stores,
        )
