"""Candidate-batch execution for the design-space explorer.

Two runners share one contract — ``evaluate(candidates, names)`` returns
one :class:`Evaluation` per candidate, memoised per (candidate,
workload-set) so strategies may re-request points for free:

- :class:`MatrixRunner` — the production path.  Batches go through the
  trace-once / replay-many engine
  (:func:`repro.system.sweep.evaluate_matrix` with its columnar replay
  and :class:`~repro.system.artifacts.ArtifactCache` layers), serially
  or with ``jobs`` processes, or are dispatched as ``sweep`` jobs to a
  running ``repro serve`` instance via
  :class:`~repro.serve.client.ServeClient`.  All three modes return
  bit-identical floats (JSON round-trips floats exactly), which is what
  makes the frontier byte-identical across them.
- :class:`TraceRunner` — evaluates against caller-supplied traces with
  the exact float-operation sequence of the original exhaustive shape
  search (per-workload speedups multiplied in trace order, then one
  root), so it reproduces pre-``repro.dse`` shape rankings to the last
  bit.

Everything either runner observes flows through the ``dse.*`` namespace
of :mod:`repro.obs` (counters via :class:`DseStats`, events via the
injected :class:`~repro.obs.Telemetry`); telemetry never changes a
returned number.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dim.params import DimParams
from repro.obs import Telemetry
from repro.obs.schema import dse_counters, dse_timers
from repro.sim.stats import TimingModel
from repro.sim.trace import Trace
from repro.system.artifacts import ArtifactCache
from repro.system.colreplay import (
    ColumnarContext,
    baseline_metrics_columnar,
    evaluate_trace_columnar,
)
from repro.system.config import SystemConfig, SystemSpec
from repro.system.energy import EnergyParams, energy_ratio
from repro.system.sweep import evaluate_matrix
from repro.workloads import workload_names

from repro.dse.space import Candidate, ParameterSpace


@dataclass(frozen=True)
class Evaluation:
    """One candidate scored against one workload set."""

    candidate: Candidate
    #: the canonical system-configuration name the candidate denotes.
    system: str
    workloads: Tuple[str, ...]
    geomean_speedup: float
    geomean_energy_ratio: float
    gates: int
    #: True when ``workloads`` is the runner's full workload set; only
    #: full evaluations enter a frontier.
    full: bool


@dataclass
class DseStats:
    """Counters and timers of one exploration (``dse.*`` schema)."""

    evaluations: int = 0        # candidate-evaluations, any fidelity
    cells: int = 0              # candidate x workload cells requested
    batches: int = 0
    full_evaluations: int = 0
    cheap_evaluations: int = 0
    promotions: int = 0
    dispatched_batches: int = 0  # batches sent to a serve instance
    frontier_points: int = 0
    dominated: int = 0
    total_seconds: float = 0.0
    evaluate_seconds: float = 0.0

    def counters(self) -> Dict[str, int]:
        """This record under the unified ``dse.*`` counter schema."""
        return dse_counters(self)

    def timer_values(self) -> Dict[str, float]:
        """Wall-clock phases under the unified ``dse.*`` timer schema."""
        return dse_timers(self)


class _RunnerBase:
    """Shared memoisation, accounting and telemetry plumbing."""

    def __init__(self, workloads: Sequence[str],
                 telemetry: Optional[Telemetry] = None):
        self.workloads: Tuple[str, ...] = tuple(workloads)
        if not self.workloads:
            raise ValueError("a runner needs at least one workload")
        self.telemetry = telemetry
        self.stats = DseStats()
        self._memo: Dict[Tuple[str, Tuple[str, ...]], Evaluation] = {}

    @property
    def _observing(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    def cheap_workloads(self, fraction: float = 0.25) -> Tuple[str, ...]:
        """The low-fidelity screening subset: the first ``fraction`` of
        the workload list (deterministic — a prefix, not a sample)."""
        count = max(1, math.ceil(len(self.workloads) * fraction))
        return self.workloads[:count]

    def evaluate(self, candidates: Sequence[Candidate],
                 names: Optional[Sequence[str]] = None
                 ) -> List[Evaluation]:
        """Score ``candidates`` against ``names`` (default: the full
        workload set).  Already-scored (candidate, names) pairs are
        served from the memo; the rest go down in one batch."""
        names = tuple(names) if names is not None else self.workloads
        full = names == self.workloads
        fresh: List[Candidate] = []
        queued = set()
        for candidate in candidates:
            key = (candidate.id, names)
            if key not in self._memo and candidate.id not in queued:
                queued.add(candidate.id)
                fresh.append(candidate)
        if fresh:
            start = time.perf_counter()
            scored = self._score_batch(fresh, names)
            self.stats.evaluate_seconds += time.perf_counter() - start
            self.stats.batches += 1
            self.stats.evaluations += len(fresh)
            self.stats.cells += len(fresh) * len(names)
            if full:
                self.stats.full_evaluations += len(fresh)
            else:
                self.stats.cheap_evaluations += len(fresh)
            for candidate, (system, speedup, energy, gates) in zip(
                    fresh, scored):
                self._memo[(candidate.id, names)] = Evaluation(
                    candidate=candidate, system=system, workloads=names,
                    geomean_speedup=speedup,
                    geomean_energy_ratio=energy, gates=gates, full=full)
            if self._observing:
                self.telemetry.emit("dse.batch_evaluated",
                                    width=len(fresh),
                                    workloads=len(names), full=full,
                                    dispatched=self._dispatched)
        return [self._memo[(c.id, names)] for c in candidates]

    def rung_promoted(self, rung_size: int, promoted: int,
                      cheap_workloads: int) -> None:
        """Record a successive-halving promotion (stats + event)."""
        self.stats.promotions += promoted
        if self._observing:
            self.telemetry.emit("dse.rung_promoted", rung=rung_size,
                                promoted=promoted,
                                cheap_workloads=cheap_workloads)

    #: overridden by runners that can dispatch to a service.
    _dispatched = False

    def _score_batch(self, batch: Sequence[Candidate],
                     names: Tuple[str, ...]
                     ) -> List[Tuple[str, float, float, int]]:
        """(system name, geomean speedup, geomean energy, gates) per
        candidate, in batch order."""
        raise NotImplementedError


class MatrixRunner(_RunnerBase):
    """Evaluate batches through the matrix sweep engine or a service."""

    def __init__(self, space: ParameterSpace,
                 workloads: Optional[Sequence[str]] = None,
                 base_dim: Optional[DimParams] = None,
                 timing: Optional[TimingModel] = None,
                 energy_params: EnergyParams = EnergyParams(),
                 jobs: int = 1, fast: bool = False,
                 cache: Optional[ArtifactCache] = None,
                 cache_dir=None, client=None,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(workloads if workloads is not None
                         else workload_names(), telemetry)
        if cache is None and cache_dir is not None:
            cache = ArtifactCache(cache_dir)
        if client is not None and timing is not None \
                and timing != TimingModel():
            raise ValueError("serve dispatch evaluates under the "
                             "default timing model; drop the custom "
                             "timing or the client")
        self.space = space
        self.base_dim = base_dim
        self.timing = timing
        self.energy_params = energy_params
        self.jobs = jobs
        self.fast = fast
        self.cache = cache
        self.client = client

    @property
    def _dispatched(self) -> bool:
        return self.client is not None

    def config_for(self, candidate: Candidate) -> SystemConfig:
        return self.space.config_of(candidate, self.base_dim,
                                    self.timing)

    def _score_batch(self, batch, names):
        if self.client is not None:
            return self._score_remote(batch, names)
        configs = [self.config_for(c) for c in batch]
        matrix = evaluate_matrix(configs, names=list(names),
                                 energy_params=self.energy_params,
                                 jobs=self.jobs, fast=self.fast,
                                 cache=self.cache,
                                 telemetry=self.telemetry)
        scored = []
        for candidate, config in zip(batch, configs):
            suite = matrix.suite(config.name)
            scored.append((config.name, suite.geomean_speedup,
                           suite.geomean_energy_ratio,
                           self.space.gates_of(candidate)))
        return scored

    def _score_remote(self, batch, names):
        """One coalescable ``sweep`` job per batch.

        The service evaluates through the same
        :func:`~repro.system.sweep.evaluate_matrix` code path; its
        ``matrix_json`` carries the geomeans as JSON floats, which
        round-trip exactly — so remote scores equal inline scores bit
        for bit.
        """
        specs = [self.space.wire_spec(c, self.base_dim) for c in batch]
        job = self.client.submit("sweep", configs=specs,
                                 names=list(names), fast=self.fast)
        payload = self.client.wait(job["job_id"])
        matrix = json.loads(payload["result"]["matrix_json"])
        by_system = {entry["system"]: entry
                     for entry in matrix["systems"]}
        self.stats.dispatched_batches += 1
        scored = []
        for candidate in batch:
            name = self.config_for(candidate).name
            entry = by_system[name]
            scored.append((name, entry["geomean_speedup"],
                           entry["geomean_energy_ratio"],
                           self.space.gates_of(candidate)))
        return scored


class TraceRunner(_RunnerBase):
    """Evaluate candidates against pre-simulated traces.

    It deliberately replays the original exhaustive shape search's
    exact float arithmetic: per-workload speedups multiplied in
    trace-dict order, then one ``** (1/n)`` — same operations, same
    order, same bits.
    Each workload keeps one shared
    :class:`~repro.system.colreplay.ColumnarContext` across every
    candidate.
    """

    def __init__(self, space: ParameterSpace,
                 traces: Mapping[str, Trace],
                 dim: Optional[DimParams] = None,
                 timing: Optional[TimingModel] = None,
                 energy_params: EnergyParams = EnergyParams(),
                 telemetry: Optional[Telemetry] = None):
        if not traces:
            raise ValueError("TraceRunner needs at least one trace")
        super().__init__(tuple(traces), telemetry)
        self.space = space
        self.traces = dict(traces)
        self.dim = dim if dim is not None \
            else DimParams(cache_slots=64, speculation=True)
        self.timing = timing if timing is not None else TimingModel()
        self.energy_params = energy_params
        self.contexts = {name: ColumnarContext(trace, name=name)
                         for name, trace in self.traces.items()}
        self.baselines = {
            name: baseline_metrics_columnar(context, self.timing)
            for name, context in self.contexts.items()}

    def _score_batch(self, batch, names):
        wanted = set(names)
        scored = []
        for candidate in batch:
            config = SystemSpec.of(
                self.space.shape_of(candidate),
                self.space.dim_of(candidate, self.dim),
            ).build(timing=self.timing)
            speed_product = 1.0
            energy_product = 1.0
            for name, trace in self.traces.items():
                if name not in wanted:
                    continue
                metrics = evaluate_trace_columnar(
                    trace, config, name=name, context=self.contexts[name])
                base = self.baselines[name]
                speed_product *= base.cycles / metrics.cycles
                energy_product *= energy_ratio(base, metrics,
                                               self.energy_params)
            exponent = 1.0 / len(names)
            scored.append((config.name, speed_product ** exponent,
                           energy_product ** exponent,
                           self.space.gates_of(candidate)))
        return scored
