"""Per-evaluation totals shared by every engine.

:class:`SystemMetrics` is what a single run, a columnar replay and the
event oracle all report for one (workload, system) pair.  It lives on
its own so a single ``repro run`` can build one without loading the
trace evaluator or the translation memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from repro.isa.opcodes import InstrClass
from repro.sim.stats import RunStats
from repro.sim.trace import BasicBlock

if TYPE_CHECKING:
    from repro.dim.engine import DimStats


@dataclass
class SystemMetrics:
    """Cycle and event totals for one (workload, system) evaluation."""

    name: str = ""
    cycles: int = 0
    instructions: int = 0
    fetches: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_transfers: int = 0
    load_use_stalls: int = 0
    hilo_stalls: int = 0
    syscalls: int = 0
    dim: Optional[DimStats] = None
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_insertions: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    predictor_accuracy: float = 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @classmethod
    def from_stats(cls, name: str, stats: RunStats,
                   **dim_fields) -> "SystemMetrics":
        """The core counters of a simulator run, plus any DIM fields.

        A plain run's stats give exactly
        :func:`~repro.system.traceeval.baseline_metrics` of its trace; a
        coupled run's stats plus its DIM and cache counters give exactly
        :func:`~repro.system.traceeval.evaluate_trace` (asserted by the
        tests).
        """
        return cls(name=name, cycles=stats.cycles,
                   instructions=stats.instructions, fetches=stats.fetches,
                   loads=stats.loads, stores=stats.stores,
                   branches=stats.branches,
                   taken_transfers=stats.taken_transfers,
                   load_use_stalls=stats.load_use_stalls,
                   hilo_stalls=stats.hilo_stalls, syscalls=stats.syscalls,
                   **dim_fields)


#: memoized (loads, stores) of covered block prefixes, shared across the
#: whole sweep: replaying one block table under all 18 paper systems hits
#: this cache 17 times out of 18.  Keyed by block *identity* (blocks use
#: identity hashing), so entries from different workloads never collide.
#: LRU-bounded so a long-lived sweep process does not pin every block of
#: every workload it ever replayed (the full 18-workload suite uses a few
#: thousand entries, well inside the bound).
@lru_cache(maxsize=65536)
def _prefix_mem_ops(block: BasicBlock, covered: int) -> Tuple[int, int]:
    loads = stores = 0
    for instr in block.instructions[:covered]:
        if instr.klass is InstrClass.LOAD:
            loads += 1
        elif instr.klass is InstrClass.STORE:
            stores += 1
    return (loads, stores)
