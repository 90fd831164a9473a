"""Suite-level evaluation API.

One call evaluates the whole Table 2 suite (or any subset) against a
system configuration and returns structured results that the CLI and
the benchmark harnesses can aggregate, print, or serialise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

from repro.system.config import SystemConfig, paper_system
from repro.system.energy import EnergyParams, energy_ratio
from repro.system.metrics import SystemMetrics
from repro.workloads import workload_names


@dataclass(frozen=True)
class WorkloadResult:
    """One (workload, system) evaluation."""

    workload: str
    system: str
    baseline_cycles: int
    cycles: int
    speedup: float
    energy_ratio: float
    instructions: int
    array_coverage: float
    cache_hit_rate: float
    misspeculations: int
    flushes: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class SuiteResult:
    """All workloads against one system."""

    system: str
    results: List[WorkloadResult]

    @property
    def geomean_speedup(self) -> float:
        product = 1.0
        for result in self.results:
            product *= result.speedup
        return product ** (1.0 / len(self.results)) if self.results else 0.0

    @property
    def geomean_energy_ratio(self) -> float:
        product = 1.0
        for result in self.results:
            product *= result.energy_ratio
        return product ** (1.0 / len(self.results)) if self.results else 0.0

    def to_json(self) -> str:
        return json.dumps({
            "system": self.system,
            "geomean_speedup": self.geomean_speedup,
            "geomean_energy_ratio": self.geomean_energy_ratio,
            "results": [r.as_dict() for r in self.results],
        }, indent=2)


def result_from_metrics(name: str, config: SystemConfig,
                        base: SystemMetrics, metrics: SystemMetrics,
                        energy_params: EnergyParams) -> WorkloadResult:
    """Fold (baseline, accelerated) metrics into one result row.

    This is the single place a :class:`WorkloadResult` is derived from
    metrics: the matrix sweep engine (:mod:`repro.system.sweep`) and the
    event-engine oracles of the tests both route through it, which is
    what lets their JSON outputs be compared byte for byte.
    """
    return WorkloadResult(
        workload=name,
        system=config.name,
        baseline_cycles=base.cycles,
        cycles=metrics.cycles,
        speedup=base.cycles / metrics.cycles,
        energy_ratio=energy_ratio(base, metrics, energy_params),
        instructions=metrics.instructions,
        array_coverage=metrics.dim.array_instructions
        / max(1, metrics.instructions),
        cache_hit_rate=metrics.cache_hits
        / max(1, metrics.cache_lookups),
        misspeculations=metrics.dim.misspeculations,
        flushes=metrics.dim.flushes,
    )


def evaluate_suite(config: Optional[SystemConfig] = None,
                   names: Optional[Iterable[str]] = None,
                   energy_params: EnergyParams = EnergyParams(),
                   jobs: int = 1) -> SuiteResult:
    """Evaluate workloads against ``config`` (default: C#2/64/spec).

    The one-configuration column of
    :func:`repro.system.sweep.evaluate_matrix`, so it shares that
    engine and its ``jobs`` process pool; the JSON output is
    byte-identical for any ``jobs``.  Like a one-shot matrix, it frees
    each workload's trace once that workload is evaluated.
    """
    # deferred to dodge the repro.system.sweep <-> suite import cycle
    from repro.system.sweep import evaluate_matrix

    config = config or paper_system("C2", 64, True)
    names = list(names) if names is not None else workload_names()
    return evaluate_matrix([config], names=names,
                           energy_params=energy_params,
                           jobs=jobs).suites[0]


def format_suite(result: SuiteResult) -> str:
    """Human-readable suite report."""
    lines = [f"suite @ {result.system}",
             f"{'workload':14s} {'speedup':>8s} {'energy':>7s} "
             f"{'coverage':>9s} {'hit rate':>9s} {'misspec':>8s}"]
    for r in result.results:
        lines.append(f"{r.workload:14s} {r.speedup:>7.2f}x "
                     f"{r.energy_ratio:>6.2f}x {r.array_coverage:>8.1%} "
                     f"{r.cache_hit_rate:>8.1%} {r.misspeculations:>8d}")
    lines.append(f"{'GEOMEAN':14s} {result.geomean_speedup:>7.2f}x "
                 f"{result.geomean_energy_ratio:>6.2f}x")
    return "\n".join(lines)
