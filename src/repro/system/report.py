"""Comprehensive acceleration reports for one program.

Bundles everything a user asks about a binary into one artefact:
workload characterisation (Figure 3 style), the DIM outcome on a chosen
system (speedup, energy, engine statistics) and the hottest cached
configurations rendered line by line (Figure 2 style).  Exposed through
``repro report`` on the CLI.

The program runs once, traced; the replay of its trace gives the
accelerated metrics and the engine whose cache the report renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.blocks import block_profile
from repro.analysis.coverage import blocks_for_coverage
from repro.asm.program import Program
from repro.cgra.render import render_configuration
from repro.sim.cpu import run_program
from repro.system.config import SystemConfig, paper_system
from repro.system.energy import EnergyParams, energy_of, energy_ratio
from repro.system.metrics import SystemMetrics
from repro.system.traceeval import _replay


@dataclass
class AccelerationReport:
    """Everything measured about one (program, system) pair."""

    system: str
    instructions: int
    baseline_cycles: int
    accelerated_cycles: int
    speedup: float
    energy_ratio: float
    instructions_per_branch: float
    distinct_blocks: int
    blocks_for_80pct: int
    array_coverage: float
    cache_hit_rate: float
    translations: int
    extensions: int
    flushes: int
    misspeculations: int
    power_shares: Dict[str, float] = field(default_factory=dict)
    hottest_configs: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"=== acceleration report @ {self.system} ===",
            "",
            "characterisation",
            f"  dynamic instructions : {self.instructions:,}",
            f"  instructions/branch  : "
            f"{self.instructions_per_branch:.1f}",
            f"  distinct blocks      : {self.distinct_blocks} "
            f"({self.blocks_for_80pct} cover 80% of execution)",
            "",
            "outcome",
            f"  cycles               : {self.baseline_cycles:,} -> "
            f"{self.accelerated_cycles:,}  ({self.speedup:.2f}x)",
            f"  energy               : {self.energy_ratio:.2f}x less",
            f"  array coverage       : {self.array_coverage:.1%} of "
            "instructions",
            f"  cache hit rate       : {self.cache_hit_rate:.1%}",
            "",
            "DIM engine",
            f"  translations {self.translations}, extensions "
            f"{self.extensions}, flushes {self.flushes}, "
            f"mis-speculations {self.misspeculations}",
            "",
            "power shares (accelerated)",
        ]
        for component, share in self.power_shares.items():
            bar = "#" * int(share * 40)
            lines.append(f"  {component:6s} {share:6.1%}  {bar}")
        if self.hottest_configs:
            lines.append("")
            lines.append("hottest cached configurations")
            for text in self.hottest_configs:
                lines.append("")
                for row in text.splitlines():
                    lines.append("  " + row)
        return "\n".join(lines)


def build_report(program: Program,
                 config: Optional[SystemConfig] = None,
                 energy_params: EnergyParams = EnergyParams(),
                 max_rendered_configs: int = 2,
                 telemetry=None) -> AccelerationReport:
    """Measure ``program`` and produce an :class:`AccelerationReport`.

    An injected ``telemetry`` sink (:mod:`repro.obs`) observes the
    plain run and the trace replay; it never changes the report.
    """
    config = config or paper_system("C2", 64, True)
    plain = run_program(program, collect_trace=True, timing=config.timing,
                        telemetry=telemetry)
    base = SystemMetrics.from_stats("mips", plain.stats)
    metrics, engine = _replay(plain.trace, config, "", telemetry)
    profile = block_profile(plain.trace)
    coverage = blocks_for_coverage(profile, fractions=(0.8,))
    breakdown = energy_of(metrics, energy_params)
    total_power = breakdown.power_per_cycle or 1.0
    shares = {component: power / total_power
              for component, power in breakdown.component_power().items()}

    ranked = sorted(engine.cache._entries.values(),
                    key=lambda c: -(c.hits * c.covered_instructions))
    rendered = [render_configuration(cfg)
                for cfg in ranked[:max_rendered_configs]]

    return AccelerationReport(
        system=config.name,
        instructions=base.instructions,
        baseline_cycles=base.cycles,
        accelerated_cycles=metrics.cycles,
        speedup=base.cycles / metrics.cycles,
        energy_ratio=energy_ratio(base, metrics, energy_params),
        instructions_per_branch=profile.instructions_per_branch,
        distinct_blocks=len(plain.trace.table),
        blocks_for_80pct=coverage[0.8],
        array_coverage=metrics.dim.array_instructions
        / max(1, base.instructions),
        cache_hit_rate=metrics.cache_hits / max(1, metrics.cache_lookups),
        translations=metrics.dim.translations,
        extensions=metrics.dim.extensions,
        flushes=metrics.dim.flushes,
        misspeculations=metrics.dim.misspeculations,
        power_shares=shares,
        hottest_configs=rendered,
    )
