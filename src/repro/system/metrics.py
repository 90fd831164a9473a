"""Per-evaluation totals shared by every engine.

:class:`SystemMetrics` is what a single run, a columnar replay and the
coupled simulator all report for one (workload, system) pair, and
:class:`CoupledRunResult` the outcome of one run on the accelerated
system.  They live on their own so a single ``repro run`` can build
both without loading the coupled simulator or the sweep engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.stats import RunStats
from repro.system.costmodel import (
    BRA, CYC, FET, HILO, INS, LDS, LUS, STS, SYS, TAK)

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

    @classmethod
    def from_totals(cls, name: str, totals: Sequence[int],
                    **dim_fields) -> "SystemMetrics":
        """The core counters of a replay's 12-field cost ``totals``
        (:mod:`repro.system.costmodel`), plus any DIM fields."""
        return cls(name=name, cycles=totals[CYC],
                   instructions=totals[INS], fetches=totals[FET],
                   loads=totals[LDS], stores=totals[STS],
                   branches=totals[BRA], taken_transfers=totals[TAK],
                   load_use_stalls=totals[LUS], hilo_stalls=totals[HILO],
                   syscalls=totals[SYS], **dim_fields)

    def to_stats(self) -> RunStats:
        """The core counters as a :class:`RunStats`: the inverse of
        :meth:`from_stats` on a run without caches."""
        return RunStats(instructions=self.instructions,
                        cycles=self.cycles,
                        taken_transfers=self.taken_transfers,
                        load_use_stalls=self.load_use_stalls,
                        hilo_stalls=self.hilo_stalls, loads=self.loads,
                        stores=self.stores, branches=self.branches,
                        fetches=self.fetches, syscalls=self.syscalls)


@dataclass
class CoupledRunResult:
    """Outcome of one run on the MIPS+DIM system.

    :class:`~repro.system.coupled.CoupledSimulator` executes the
    program with the array in the loop; :func:`repro.api.run` replays
    the plain run's trace instead and takes the architectural fields
    from the plain run, which the coupled simulator proves identical
    (``tests/test_system_equivalence.py``).
    """

    exit_code: int
    output: str
    stats: RunStats
    registers: List[int]
    memory: object
    #: the run's totals, field for field what
    #: :func:`~repro.system.traceeval.evaluate_trace` computes from the
    #: plain run's trace.
    metrics: SystemMetrics

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def dim_stats(self) -> DimStats:
        return self.metrics.dim

    @property
    def cache_lookups(self) -> int:
        return self.metrics.cache_lookups

    @property
    def cache_hits(self) -> int:
        return self.metrics.cache_hits

    @property
    def predictor_accuracy(self) -> float:
        return self.metrics.predictor_accuracy

