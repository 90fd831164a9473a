"""The stable public API facade.

Seven verbs cover the package's evaluation surface, re-exported from
``repro`` itself; internal modules remain importable but are no longer
the advertised entry points:

- :class:`SystemSpec` — the one canonical, JSON-round-trippable system
  description (:mod:`repro.system.config`); every entry point (CLI
  subcommands, serve protocol, DSE runners, MPSoC allocator) builds
  configurations from it.
- :func:`run` — one target, plain vs accelerated: one traced run,
  replayed through the DIM system.
- :func:`evaluate` — the Table 2 suite (or a subset) on one system.
- :func:`sweep` — the full workloads x configurations matrix through
  the trace-once / replay-many engine.
- :func:`connect` — a client for a running ``repro serve`` service or
  ``repro fleet`` coordinator (both speak the same ``/v1`` protocol),
  which executes the same verbs as queued jobs with batch coalescing
  and warm caches (:mod:`repro.serve`, :mod:`repro.fleet`); results
  are byte-identical to the offline calls above.
- :func:`explore` — multi-objective design-space exploration
  (:mod:`repro.dse`): seeded, budget-bounded strategies over the joint
  (shape, cache, speculation, policy) space, returning a Pareto
  frontier with exact hypervolume.
- :func:`mpsoc` — heterogeneous MPSoC scenario exploration
  (:mod:`repro.mpsoc`): rank core-count x array-shape allocations
  under an area budget against a weighted traffic mix.
- :func:`corpus` — generate a seeded synthetic workload corpus
  (:mod:`repro.corpus`) of self-checking assembly kernels and register
  them so every other verb sees them as ordinary workloads.
- :func:`traffic` — replay a seeded, Zipf-skewed traffic mix against a
  connected serve/fleet endpoint (:mod:`repro.traffic`) and report
  latency percentiles, coalescing and shed rates.

All verbs accept an optional :class:`repro.obs.Telemetry` sink where
observation makes sense; telemetry never changes any returned number.

>>> import repro
>>> config = repro.SystemSpec(array="C3", slots=64,
...                           speculation=True).build()
>>> result = repro.run("crc", config=config)
>>> round(result.speedup, 1) > 1.0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro._lazy import lazy_dir, lazy_exports
from repro.asm.program import Program
from repro.dim.params import DimParams
from repro.obs import Telemetry
from repro.sim.cpu import RunResult, run_program
from repro.system.config import SystemConfig, SystemSpec
from repro.system.energy import EnergyParams, energy_ratio
from repro.system.metrics import CoupledRunResult, SystemMetrics
from repro.system.traceeval import evaluate_trace
from repro.workloads import is_workload, load_workload, workload_names

if TYPE_CHECKING:
    from repro.system.artifacts import ArtifactCache
    from repro.system.sweep import MatrixResult
    from repro.workloads.suite import SuiteResult

#: what :func:`run` needs is imported above; the matrix engine, the
#: suite and the artifact store load when a verb (or an attribute
#: lookup) first asks for them.
_EXPORTS = {
    "ArtifactCache": "repro.system.artifacts",
    "MatrixResult": "repro.system.sweep",
    "evaluate_matrix": "repro.system.sweep",
    "paper_matrix": "repro.system.sweep",
    "SuiteResult": "repro.workloads.suite",
    "evaluate_suite": "repro.workloads.suite",
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__dir__ = lazy_dir(globals(), _EXPORTS)

#: a target: workload name, ``.s``/``.asm``/``.c`` path, or a Program.
Target = Union[str, Program]


def load_target(target: Target) -> Program:
    """Resolve a workload name, assembly/mini-C path, or Program."""
    if isinstance(target, Program):
        return target
    if is_workload(target):
        return load_workload(target)
    if target.endswith(".s") or target.endswith(".asm"):
        from repro.asm import assemble

        with open(target) as handle:
            return assemble(handle.read())
    if target.endswith(".c"):
        from repro.minic import compile_to_program

        with open(target) as handle:
            return compile_to_program(handle.read(), source_name=target)
    raise ValueError(
        f"unknown target {target!r}: expected a workload name "
        f"(see repro.workloads.workload_names()), a .s file, or a "
        f".c file")


@dataclass(frozen=True)
class RunComparison:
    """One target run plain and accelerated, with derived metrics."""

    config: SystemConfig
    plain: RunResult
    accelerated: CoupledRunResult
    baseline: SystemMetrics
    metrics: SystemMetrics
    energy_params: EnergyParams = EnergyParams()

    @property
    def speedup(self) -> float:
        return self.plain.stats.cycles / self.accelerated.stats.cycles

    @property
    def energy_ratio(self) -> float:
        """How many times less energy the accelerated system uses."""
        return energy_ratio(self.baseline, self.metrics,
                            self.energy_params)


def run(target: Target, config: Optional[SystemConfig] = None,
        telemetry: Optional[Telemetry] = None) -> RunComparison:
    """Run ``target`` on the plain MIPS and on the DIM system.

    The program executes once, on the plain core, with its trace
    collected; :func:`~repro.system.traceeval.evaluate_trace` replays
    that trace through the DIM system for the accelerated metrics.  DIM
    only watches the retired stream, so the replay is cycle-exact with
    the coupled simulator, and the accelerated run's exit code, output,
    registers and memory are the plain run's: the coupled simulator
    proves both in ``tests/test_system_equivalence.py``.  The baseline
    metrics are read off the plain run's counters.  ``telemetry``
    observes the run and the replay.
    """
    program = load_target(target)
    config = config if config is not None \
        else SystemSpec(array="C3").build()
    plain = run_program(program, collect_trace=True, timing=config.timing,
                        telemetry=telemetry)
    metrics = evaluate_trace(plain.trace, config, telemetry=telemetry)
    accelerated = CoupledRunResult(
        exit_code=plain.exit_code, output=plain.output,
        stats=metrics.to_stats(), registers=plain.registers,
        memory=plain.memory, metrics=metrics)
    baseline = SystemMetrics.from_stats("mips", plain.stats)
    return RunComparison(config=config, plain=plain,
                         accelerated=accelerated, baseline=baseline,
                         metrics=metrics)


def evaluate(config: Optional[SystemConfig] = None,
             names: Optional[Iterable[str]] = None,
             jobs: int = 1, fast: bool = True,
             energy_params: EnergyParams = EnergyParams()) -> SuiteResult:
    """Evaluate the whole suite (or ``names``) against one system.

    ``fast`` is accepted for old callers and ignored.
    """
    from repro.workloads.suite import evaluate_suite

    del fast
    config = config if config is not None else SystemSpec(
        array="C2", slots=64, speculation=True).build()
    return evaluate_suite(config, names=names, jobs=jobs,
                          energy_params=energy_params)


def sweep(configs: Optional[Sequence[SystemConfig]] = None,
          names: Optional[Iterable[str]] = None,
          jobs: int = 1,
          cache: Optional[ArtifactCache] = None,
          telemetry: Optional[Telemetry] = None,
          energy_params: EnergyParams = EnergyParams()) -> MatrixResult:
    """Evaluate a workloads x configurations matrix.

    Defaults to the paper's full Table 2 matrix
    (:func:`repro.system.sweep.paper_matrix`).  Cells replay on the
    columnar engine, observed or not; an enabled ``telemetry`` sink
    collects each live cell's engine counters and never changes a
    result.
    """
    from repro.system.sweep import evaluate_matrix, paper_matrix

    configs = list(configs) if configs is not None else paper_matrix()
    return evaluate_matrix(configs, names=names, jobs=jobs,
                           cache=cache, telemetry=telemetry,
                           energy_params=energy_params)


def connect(url: str = "http://127.0.0.1:8350", timeout: float = 60.0):
    """A :class:`repro.serve.ServeClient` for a running service.

    Works unchanged against a ``repro fleet`` coordinator — the fleet
    speaks the same ``/v1`` protocol (for high-throughput streaming
    against a fleet, :class:`repro.fleet.FleetClient` adds bounded
    in-flight windows).  Verifies the protocol version against the
    server's ``healthz`` before returning.  Deferred import so the
    offline API keeps zero service dependencies.
    """
    from repro.serve.client import connect as serve_connect

    return serve_connect(url, timeout=timeout)


def explore(space=None, strategy: str = "grid",
            objectives: Sequence[str] = ("speedup", "area"),
            workloads: Optional[Sequence[str]] = None,
            budget: Optional[int] = None, seed: int = 0,
            jobs: int = 1,
            cache: Optional[ArtifactCache] = None, client=None,
            telemetry: Optional[Telemetry] = None, **kwargs):
    """Seeded, budget-bounded design-space exploration
    (:mod:`repro.dse`); returns a Pareto
    :class:`~repro.dse.frontier.FrontierResult`.

    Deferred import so the core API carries no exploration
    dependencies; see :func:`repro.dse.explore` for the full parameter
    set (``client`` dispatches evaluation batches to a running
    ``repro serve`` instance).
    """
    from repro.dse import explore as dse_explore

    return dse_explore(space=space, strategy=strategy,
                       objectives=objectives, workloads=workloads,
                       budget=budget, seed=seed, jobs=jobs,
                       cache=cache, client=client,
                       telemetry=telemetry, **kwargs)


def mpsoc(spec=None, **kwargs):
    """Explore heterogeneous MPSoC allocations (:mod:`repro.mpsoc`).

    Rank core-count x array-shape mixes under an area budget (Sys-S/M/L
    presets or explicit gates) against a weighted traffic mix, through
    the same four DSE strategies and Pareto frontier as
    :func:`explore`; returns a
    :class:`~repro.mpsoc.MpsocExploration`.  Deferred import so the
    core API carries no scenario-layer dependencies; see
    :func:`repro.mpsoc.explore_mix` for the full parameter set
    (``client`` dispatches evaluation to a running ``repro serve`` or
    ``repro fleet`` instance).
    """
    from repro.mpsoc import explore_mix

    return explore_mix(spec, **kwargs)


def corpus(seed: int = 0, count: int = 100, profile: str = "mixed",
           register: bool = True,
           telemetry: Optional[Telemetry] = None):
    """Generate a seeded synthetic workload corpus (:mod:`repro.corpus`).

    Emits ``count`` parameterised, self-checking assembly kernels drawn
    from the named knob ``profile`` (``mixed``/``dataflow``/``control``/
    ``memory``) and, when ``register`` is true, registers them through
    the :mod:`repro.workloads` registry so :func:`run`,
    :func:`evaluate`, :func:`sweep`, :func:`explore` and the services
    consume them like any built-in workload.  Returns the
    :class:`~repro.corpus.Corpus`; write its manifest with
    ``.write(path)``.  Deferred import so the core API carries no
    generator dependencies.
    """
    from repro.corpus import CorpusKnobs, generate_corpus, \
        register_corpus

    generated = generate_corpus(seed, count,
                                knobs=CorpusKnobs.named(profile),
                                telemetry=telemetry)
    if register:
        register_corpus(generated, telemetry=telemetry)
    return generated


def traffic(client, spec=None, names: Optional[Sequence[str]] = None,
            telemetry: Optional[Telemetry] = None, **kwargs):
    """Replay a seeded traffic mix against a live service
    (:mod:`repro.traffic`).

    ``client`` is a :func:`connect` result (serve or fleet — same /v1
    protocol); ``spec`` a :class:`~repro.traffic.TrafficSpec` (built
    from ``kwargs`` when omitted); ``names`` the candidate workloads
    (defaults to every registered name, including corpus kernels).
    Returns a :class:`~repro.traffic.TrafficReport` with latency
    percentiles, batch-coalescing hit rate and shed rate measured from
    real service telemetry.  Deferred import so the core API carries no
    replay dependencies.
    """
    from repro.traffic import TrafficSpec, replay_traffic

    if spec is None:
        spec = TrafficSpec(**kwargs)
        kwargs = {}
    elif kwargs:
        raise TypeError("pass either spec or TrafficSpec kwargs, "
                        "not both")
    picked = list(names) if names is not None else workload_names()
    return replay_traffic(client, spec, picked, telemetry=telemetry)


__all__ = [
    "Target",
    "DimParams",
    "RunComparison",
    "SystemSpec",
    "connect",
    "corpus",
    "explore",
    "load_target",
    "mpsoc",
    "run",
    "evaluate",
    "sweep",
    "traffic",
]
