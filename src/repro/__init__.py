"""Reproduction of Beck et al., "Transparent Reconfigurable Acceleration for
Heterogeneous Embedded Applications" (DATE 2008).

The package couples a from-scratch MIPS I toolchain and simulator with the
paper's contribution: Dynamic Instruction Merging (DIM), a hardware binary
translator that maps runs of MIPS instructions onto a coarse-grained
reconfigurable array, caches the resulting configurations, and speculates
across basic blocks with a bimodal predictor.

Stable API (the :mod:`repro.api` facade)
----------------------------------------
- :class:`repro.SystemSpec` — the one canonical, JSON-round-trippable
  system description every entry point builds configurations from.
- :func:`repro.run` — run one target plain and accelerated: one traced
  execution, replayed through the DIM system.
- :func:`repro.evaluate` — the Table 2 suite against one system.
- :func:`repro.sweep` — a workloads x configurations matrix through the
  trace-once / replay-many sweep engine.
- :func:`repro.connect` — a client for a running ``repro serve``
  evaluation service (:mod:`repro.serve`) or ``repro fleet``
  coordinator (:mod:`repro.fleet` — same ``/v1`` protocol), which
  executes the same verbs as queued jobs with batch coalescing and
  warm caches.
- :func:`repro.explore` — multi-objective design-space exploration
  (:mod:`repro.dse`): seeded, budget-bounded strategies over the joint
  (shape, cache, speculation, policy) space returning a Pareto
  frontier.
- :func:`repro.mpsoc` — heterogeneous MPSoC scenario exploration
  (:mod:`repro.mpsoc`): core-count x array-shape allocations under
  Sys-S/M/L area budgets, ranked against weighted traffic mixes.
- :func:`repro.corpus` — seeded synthetic workload corpus generation
  (:mod:`repro.corpus`): self-checking assembly kernels registered as
  ordinary workloads.
- :func:`repro.traffic` — seeded traffic-mix replay against a live
  serve/fleet endpoint (:mod:`repro.traffic`).
- :class:`repro.Telemetry` / :data:`repro.NULL_TELEMETRY` — the unified
  observability sink accepted by all of the above (:mod:`repro.obs`).

Internal modules (:mod:`repro.sim`, :mod:`repro.dim`,
:mod:`repro.system`, ...) stay importable for research use, but the
facade above is the supported surface.
"""

from repro._lazy import lazy_dir, lazy_exports

#: every facade name and the module that defines it; resolved on first
#: access, so ``import repro`` (and ``import repro.cli``) stays cheap.
_EXPORTS = {
    **{name: "repro.api" for name in (
        "DimParams", "RunComparison", "SystemSpec", "Target", "connect",
        "corpus", "evaluate", "explore", "load_target", "mpsoc", "run",
        "sweep", "traffic")},
    **{name: "repro.obs" for name in (
        "NULL_TELEMETRY", "NullTelemetry", "Telemetry",
        "TelemetrySnapshot")},
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__dir__ = lazy_dir(globals(), _EXPORTS)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "DimParams",
    "RunComparison",
    "SystemSpec",
    "Target",
    "connect",
    "corpus",
    "evaluate",
    "explore",
    "load_target",
    "mpsoc",
    "run",
    "sweep",
    "traffic",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
]
