"""Basic-block execution profiles (Figure 3b's metric)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.trace import Trace


@dataclass(frozen=True)
class BlockProfile:
    """Execution profile of one traced run."""

    #: block id -> times executed.
    counts: Dict[int, int]
    #: block id -> dynamic instructions attributed to it.
    instructions: Dict[int, int]
    total_instructions: int
    total_branches: int

    @property
    def instructions_per_branch(self) -> float:
        """Figure 3b: average dynamic basic-block length."""
        if not self.total_branches:
            return float("inf")
        return self.total_instructions / self.total_branches

    def hottest(self, n: int = 10) -> List[Tuple[int, int]]:
        """The n most-executed blocks as (block_id, instructions)."""
        ranked = sorted(self.instructions.items(), key=lambda kv: -kv[1])
        return ranked[:n]


def block_profile(trace: Trace) -> BlockProfile:
    """Profile a trace: per-block execution and instruction counts."""
    counts = dict(trace.block_execution_counts())
    instructions: Dict[int, int] = {}
    total_instructions = 0
    total_branches = 0
    table = trace.table
    for block_id, count in counts.items():
        block = table.get(block_id)
        instructions[block_id] = count * len(block)
        total_instructions += instructions[block_id]
        if block.terminator is not None:
            total_branches += count
    return BlockProfile(counts, instructions, total_instructions,
                        total_branches)


def instructions_per_branch(trace: Trace) -> float:
    """Convenience wrapper for Figure 3b."""
    return block_profile(trace).instructions_per_branch
