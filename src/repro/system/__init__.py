"""The coupled MIPS + DIM + array system and its evaluation harnesses.

Three execution paths produce identical cycle counts, one per job:

- :class:`repro.system.coupled.CoupledSimulator` runs the program
  functionally with the array in the loop — bit-exact architectural
  state; single runs (``repro run``, ``repro report``) read their
  metrics off it.
- :mod:`repro.system.colreplay` replays a trace lowered to columns
  under many configurations at once.  Every trace-driven metrics job
  runs it through one workload row of :mod:`repro.system.sweep`:
  :func:`~repro.system.sweep.evaluate_matrix` and what builds on it
  (suites, serve and fleet batches, the DSE runners, mpsoc), and
  :func:`~repro.system.sweep.replay_matrix` over caller-supplied
  traces (the DSE ``TraceRunner``, the paper benches and examples).
- :func:`repro.system.traceeval.evaluate_trace` replays a basic-block
  trace event by event through the same
  :class:`repro.dim.engine.DimEngine` — the reference the other two
  are tested against.

:mod:`repro.system.config` holds Table 1's array shapes,
:mod:`repro.system.energy` the event-based power/energy model
(Figures 5/6), and :mod:`repro.system.area` the gate-count and
configuration-bit model (Table 3).
"""

from repro._lazy import lazy_dir, lazy_exports

#: every re-exported name and the submodule that defines it, resolved on
#: first access: a single run never loads the sweep engine, the
#: artifact store or the event oracle.
_EXPORTS = {
    **{name: "repro.system.config" for name in (
        "PAPER_CACHE_SLOTS", "PAPER_SHAPES", "SystemConfig",
        "paper_system")},
    **{name: "repro.system.costmodel" for name in (
        "BlockCost", "BlockCostModel")},
    **{name: "repro.system.coupled" for name in (
        "CoupledSimulator", "CoupledRunResult", "run_coupled")},
    "SystemMetrics": "repro.system.metrics",
    **{name: "repro.system.traceeval" for name in (
        "baseline_metrics", "evaluate_trace")},
    **{name: "repro.system.energy" for name in (
        "EnergyParams", "EnergyBreakdown", "energy_of", "energy_ratio")},
    **{name: "repro.system.area" for name in (
        "AreaParams", "area_report", "cache_bytes", "config_bits_report")},
    "ArtifactCache": "repro.system.artifacts",
    **{name: "repro.system.sweep" for name in (
        "MatrixResult", "SweepInstrumentation", "evaluate_matrix",
        "paper_matrix", "replay_matrix")},
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__dir__ = lazy_dir(globals(), _EXPORTS)

__all__ = [
    "PAPER_CACHE_SLOTS",
    "PAPER_SHAPES",
    "SystemConfig",
    "paper_system",
    "BlockCost",
    "BlockCostModel",
    "CoupledSimulator",
    "CoupledRunResult",
    "run_coupled",
    "SystemMetrics",
    "baseline_metrics",
    "evaluate_trace",
    "EnergyParams",
    "EnergyBreakdown",
    "energy_of",
    "energy_ratio",
    "AreaParams",
    "area_report",
    "cache_bytes",
    "config_bits_report",
    "ArtifactCache",
    "MatrixResult",
    "SweepInstrumentation",
    "evaluate_matrix",
    "paper_matrix",
    "replay_matrix",
]
