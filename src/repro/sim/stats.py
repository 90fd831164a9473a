"""Timing parameters and run statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class TimingModel:
    """Cycle costs of the single-issue in-order MIPS core.

    The baseline follows the R3000 structure: one instruction per cycle,
    a one-cycle bubble for every taken control transfer (the delay slot,
    modelled as if filled with a nop), a one-cycle load-use interlock, and
    multi-cycle multiply/divide whose latency is only exposed when HI/LO
    is read too early.
    """

    branch_penalty: int = 1
    load_use_stall: int = 1
    mult_latency: int = 4
    div_latency: int = 16
    syscall_cycles: int = 1


#: the counters a compiled block adds through one packed integer
#: (:mod:`repro.sim.fastpath`), lowest lane first.  Each lane is
#: ``LANE_BITS`` wide, enough for any count a run can reach between two
#: reads of ``Simulator.stats`` (which folds the packed sum back in).
PACKED_FIELDS = ("cycles", "fetches", "taken_transfers", "branches",
                 "loads", "stores", "load_use_stalls", "hilo_stalls",
                 "syscalls")
LANE_BITS = 64


def pack_counts(counts: Dict[str, int]) -> int:
    """``counts`` (names from :data:`PACKED_FIELDS`) as one integer."""
    packed = 0
    for lane, name in enumerate(PACKED_FIELDS):
        packed |= counts.get(name, 0) << (lane * LANE_BITS)
    return packed


@dataclass
class RunStats:
    """Counters accumulated over one simulation."""

    instructions: int = 0
    cycles: int = 0
    taken_transfers: int = 0
    load_use_stalls: int = 0
    hilo_stalls: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    fetches: int = 0
    syscalls: int = 0
    icache_misses: int = 0
    dcache_misses: int = 0
    class_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def instructions_per_branch(self) -> float:
        """Fig. 3b's metric: dynamic instructions per control transfer."""
        control = self.branches
        return self.instructions / control if control else float("inf")

    def add_packed(self, packed: int) -> None:
        """Add a sum of :func:`pack_counts` values, lane by lane."""
        mask = (1 << LANE_BITS) - 1
        for name in PACKED_FIELDS:
            setattr(self, name, getattr(self, name) + (packed & mask))
            packed >>= LANE_BITS

    def merge(self, other: "RunStats") -> None:
        self.instructions += other.instructions
        self.cycles += other.cycles
        self.taken_transfers += other.taken_transfers
        self.load_use_stalls += other.load_use_stalls
        self.hilo_stalls += other.hilo_stalls
        self.loads += other.loads
        self.stores += other.stores
        self.branches += other.branches
        self.fetches += other.fetches
        self.syscalls += other.syscalls
        self.icache_misses += other.icache_misses
        self.dcache_misses += other.dcache_misses
        for key, value in other.class_counts.items():
            self.class_counts[key] = self.class_counts.get(key, 0) + value
