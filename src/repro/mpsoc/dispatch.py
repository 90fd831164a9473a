"""Per-kernel dispatch and the allocation-scoring runner.

**Dispatch rule.** Each workload in the traffic mix goes to the
allocation array with the highest per-workload speedup (catalog order
breaks ties).  When the allocation has spare plain cores
(``cores > len(arrays)``) and even the best array decelerates the
workload, it runs on a plain core at speedup 1.0 instead; when every
core is coupled there is no plain tile — DIM is transparent — so the
best array takes it regardless.  Per-kernel affinity comes from the
per-workload :class:`~repro.workloads.suite.WorkloadResult` rows of one
:func:`~repro.system.sweep.evaluate_matrix` call over the catalog
(one trace per workload; every array shape is just more cells), so a
degenerate one-core/one-array allocation reproduces the single-system
``repro.api.evaluate`` numbers bit for bit.

**Runner.** :class:`MpsocRunner` implements the
:class:`repro.dse.runner._RunnerBase` contract, which is what lets all
four DSE strategies and the Pareto frontier rank allocations out of
the box.  The expensive part — the catalog x workloads matrix — is
evaluated ONCE per workload subset and shared by every allocation in
the search; each candidate then costs only a dispatch + composition
pass.  Like :class:`~repro.dse.runner.MatrixRunner`, it reads the
matrix off one ``results_json`` document, built inline or, with a
``client``, by a single ``sweep`` job on a running ``repro serve``
service or ``repro fleet`` coordinator (same ``/v1`` protocol); JSON
round-trips the per-workload floats exactly, so remote scores equal
inline scores bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.runner import DseStats, _MatrixBacked
from repro.dse.space import Candidate
from repro.obs import Telemetry
from repro.obs.schema import mpsoc_counters, mpsoc_timers
from repro.system.artifacts import ArtifactCache
from repro.system.energy import EnergyParams

from repro.mpsoc.allocator import AllocationSpace
from repro.mpsoc.phases import ScoreTable, compose_mix
from repro.mpsoc.spec import MpsocSpec

#: dispatch-target marker for a plain (uncoupled) MIPS core.
PLAIN_CORE = "core"


@dataclass(frozen=True)
class DispatchRow:
    """One workload's dispatch decision under one allocation."""

    workload: str
    weight: float      # normalised mix weight
    tile: str          # catalog array name, or PLAIN_CORE
    system: str        # canonical config name ("" for a plain core)
    speedup: float
    energy_ratio: float

    def as_dict(self) -> Dict[str, object]:
        return {"workload": self.workload, "weight": self.weight,
                "tile": self.tile, "system": self.system,
                "speedup": self.speedup,
                "energy_ratio": self.energy_ratio}


def dispatch_mix(weights: Sequence[Tuple[str, float]], cores: int,
                 arrays: Sequence[str], scores: ScoreTable,
                 systems: Dict[str, str]) -> Tuple[DispatchRow, ...]:
    """Dispatch every mix workload to its best-fitting tile.

    ``weights`` are normalised (workload, weight) pairs in mix order;
    ``arrays`` the allocation's catalog names; ``systems`` maps catalog
    names to canonical config names.
    """
    rows: List[DispatchRow] = []
    has_plain = cores > len(arrays)
    for workload, weight in weights:
        best: Optional[str] = None
        best_speedup = 0.0
        best_energy = 1.0
        for array in arrays:
            speedup, energy = scores[(workload, array)]
            if best is None or speedup > best_speedup:
                best, best_speedup, best_energy = array, speedup, energy
        if best is None or (has_plain and best_speedup < 1.0):
            rows.append(DispatchRow(workload, weight, PLAIN_CORE, "",
                                    1.0, 1.0))
        else:
            rows.append(DispatchRow(workload, weight, best,
                                    systems[best], best_speedup,
                                    best_energy))
    return tuple(rows)


@dataclass
class MpsocStats(DseStats):
    """DSE counters plus the ``mpsoc.*`` scenario-layer additions."""

    allocations_scored: int = 0
    feasible_allocations: int = 0
    pruned_allocations: int = 0
    dispatch_accelerated: int = 0
    dispatch_plain: int = 0
    matrix_cells: int = 0
    compose_seconds: float = 0.0

    def counters(self) -> Dict[str, int]:
        merged = super().counters()
        merged.update(mpsoc_counters(self))
        return merged

    def timer_values(self) -> Dict[str, float]:
        merged = super().timer_values()
        merged.update(mpsoc_timers(self))
        return merged


class MpsocRunner(_MatrixBacked):
    """Score candidate allocations for the DSE strategies."""

    def __init__(self, spec: MpsocSpec, space: AllocationSpace,
                 energy_params: EnergyParams = EnergyParams(),
                 jobs: int = 1,
                 cache: Optional[ArtifactCache] = None, client=None,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(spec.workloads, energy_params, jobs, cache,
                         client, telemetry)
        self.spec = spec
        self.space = space
        self.stats = MpsocStats()
        #: canonical config name per catalog entry.
        self.systems: Dict[str, str] = {
            name: entry.name for name, entry in spec.catalog}
        self._scores: Dict[Tuple[str, ...], ScoreTable] = {}
        self._dispatch: Dict[Tuple[str, Tuple[str, ...]],
                             Tuple[DispatchRow, ...]] = {}

    def dispatch_table(self, candidate: Candidate,
                       names: Optional[Sequence[str]] = None
                       ) -> Tuple[DispatchRow, ...]:
        """The dispatch decisions of an already-scored allocation."""
        names = tuple(names) if names is not None else self.workloads
        return self._dispatch[(candidate.id, names)]

    # ------------------------------------------------------------------
    # Catalog affinity scores (one matrix per workload subset).
    # ------------------------------------------------------------------
    def catalog_scores(self, names: Tuple[str, ...]) -> ScoreTable:
        if names not in self._scores:
            systems = self._matrix_systems(
                [entry for _, entry in self.spec.catalog], names)
            scores: Dict[Tuple[str, str], Tuple[float, float]] = {}
            for catalog_name, entry in self.spec.catalog:
                for row in systems[entry.name]["results"]:
                    scores[(row["workload"], catalog_name)] = (
                        row["speedup"], row["energy_ratio"])
            self._scores[names] = scores
            self.stats.matrix_cells += len(self.spec.catalog) * len(names)
        return self._scores[names]

    # ------------------------------------------------------------------
    # The _RunnerBase contract.
    # ------------------------------------------------------------------
    def _score_batch(self, batch: Sequence[Candidate],
                     names: Tuple[str, ...]
                     ) -> List[Tuple[str, float, float, int]]:
        scores = self.catalog_scores(names)
        weights = self.spec.weights(names)
        scored: List[Tuple[str, float, float, int]] = []
        start = time.perf_counter()
        for candidate in batch:
            cores = self.space.cores_of(candidate)
            arrays = self.space.arrays_of(candidate)
            rows = dispatch_mix(weights, cores, arrays, scores,
                                self.systems)
            speedup, energy = compose_mix(
                rows, cores, arrays, scores, self.spec.serial_fraction)
            self._dispatch[(candidate.id, names)] = rows
            name = self.space.allocation_name(candidate)
            scored.append((name, speedup, energy,
                           self.space.gates_of(candidate)))
            self.stats.allocations_scored += 1
            plain = sum(1 for row in rows if row.tile == PLAIN_CORE)
            self.stats.dispatch_plain += plain
            self.stats.dispatch_accelerated += len(rows) - plain
            if self._observing:
                self.telemetry.emit(
                    "mpsoc.allocation_scored", allocation=name,
                    cores=cores, arrays=len(arrays),
                    gates=scored[-1][3], mix_speedup=speedup,
                    workloads=len(names))
        self.stats.compose_seconds += time.perf_counter() - start
        return scored
