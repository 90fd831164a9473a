"""Event-based power/energy model (Figures 5 and 6).

The paper measured power with PowerCompiler on a TSMC 0.18u netlist; we
substitute an event-energy model with per-event costs chosen to match the
*relative* magnitudes the paper reports (see DESIGN.md).  The model
charges the five components Figure 5 separates:

- **core** — pipeline, register file and control, per cycle;
- **imem** — instruction-memory read per fetched instruction (array-
  covered instructions are *not* fetched: their encodings come from the
  reconfiguration cache, the paper's third energy-saving mechanism);
- **dmem** — data-memory access per committed load/store;
- **array** — functional-unit and interconnect activity plus the
  reconfiguration-cache traffic;
- **bt** — the DIM detection hardware and its predictor.

Energies are in picojoules per event; absolute values are calibrated, not
measured, so only ratios are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.metrics import SystemMetrics


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (pJ)."""

    #: pipeline + register file + clocking, per executed cycle.
    core_cycle: float = 120.0
    #: instruction-memory read, per fetched instruction.
    ifetch: float = 136.0
    #: data-memory access, per committed load or store.
    dmem_access: float = 190.0
    #: one ALU/shift operation in the array.
    array_alu_op: float = 16.0
    #: one multiply in the array.
    array_mult_op: float = 110.0
    #: one load/store unit activation (memory energy charged separately).
    array_mem_op: float = 24.0
    #: array interconnect + static, per powered line per active cycle.
    #: (48 lines x 2.9167 = 140 pJ/cycle for configuration #2, the value
    #: the Figure 6 calibration was performed at.)
    array_line_cycle: float = 2.9167
    #: when True, unused lines are switched off during execution — the
    #: paper's stated future work ("techniques to switch off functional
    #: units when they are being not used").
    fu_gating: bool = False
    #: reconfiguration-cache read, per array execution.
    rc_read: float = 190.0
    #: reconfiguration-cache write, per stored configuration.
    rc_write: float = 400.0
    #: DIM translation logic, per analysed instruction.
    bt_per_instruction: float = 14.0
    #: bimodal predictor read+update, per resolved branch.
    predictor_update: float = 3.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component, in picojoules."""

    core: float
    imem: float
    dmem: float
    array: float
    bt: float
    cycles: int

    @property
    def total(self) -> float:
        return self.core + self.imem + self.dmem + self.array + self.bt

    @property
    def power_per_cycle(self) -> float:
        """Average energy per cycle — Figure 5's 'power consumed by cycle'."""
        return self.total / self.cycles if self.cycles else 0.0

    def component_power(self) -> dict:
        """Per-component average power (energy/cycle), Figure 5's stacks."""
        if not self.cycles:
            return {"core": 0.0, "imem": 0.0, "dmem": 0.0, "array": 0.0,
                    "bt": 0.0}
        return {
            "core": self.core / self.cycles,
            "imem": self.imem / self.cycles,
            "dmem": self.dmem / self.cycles,
            "array": self.array / self.cycles,
            "bt": self.bt / self.cycles,
        }


def energy_of(metrics: SystemMetrics,
              params: EnergyParams = EnergyParams()) -> EnergyBreakdown:
    """Total energy of one run, from its metrics.

    Works for both the standalone MIPS (``metrics.dim is None``) and the
    coupled system.
    """
    core = metrics.cycles * params.core_cycle
    imem = metrics.fetches * params.ifetch
    dmem = (metrics.loads + metrics.stores) * params.dmem_access
    array = 0.0
    bt = 0.0
    dim = metrics.dim
    if dim is not None:
        line_cycles = dim.array_line_cycles if params.fu_gating \
            else dim.array_potential_line_cycles
        array = (dim.array_alu_ops * params.array_alu_op
                 + dim.array_mult_ops * params.array_mult_op
                 + dim.array_mem_ops * params.array_mem_op
                 + line_cycles * params.array_line_cycle
                 + dim.array_executions * params.rc_read
                 + dim.config_writes * params.rc_write)
        bt = (dim.translated_instructions * params.bt_per_instruction
              + metrics.branches * params.predictor_update)
    return EnergyBreakdown(core=core, imem=imem, dmem=dmem, array=array,
                           bt=bt, cycles=metrics.cycles)


def energy_ratio(baseline: SystemMetrics, accelerated: SystemMetrics,
                 params: EnergyParams = EnergyParams()) -> float:
    """How many times less energy the accelerated system uses (Fig. 6)."""
    base = energy_of(baseline, params).total
    accel = energy_of(accelerated, params).total
    return base / accel if accel else 0.0


def iso_performance_energy_ratio(baseline: SystemMetrics,
                                 accelerated: SystemMetrics,
                                 params: EnergyParams = EnergyParams(),
                                 voltage_exponent: float = 2.0) -> float:
    """Energy ratio when the speedup is traded for frequency instead.

    Section 5.3's closing argument: "assuming that the MIPS itself would
    be enough to handle real time constraints ..., one could reduce the
    system clock frequency to achieve exactly the same performance level
    — thus decreasing even more the power and energy consumptions."

    Scaling the accelerated system's clock down by the speedup ``s``
    allows a proportional supply-voltage reduction; with dynamic energy
    per operation proportional to ``V^2`` (``voltage_exponent``), every
    event in the accelerated run costs ``s^-voltage_exponent`` as much,
    so the iso-performance ratio is ``energy_ratio * s^exponent``.
    """
    if not accelerated.cycles:
        return 0.0
    speedup = baseline.cycles / accelerated.cycles
    scale = max(1.0, speedup) ** voltage_exponent
    return energy_ratio(baseline, accelerated, params) * scale
