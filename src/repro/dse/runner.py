"""Candidate-batch execution for the design-space explorer.

Two runners share one contract — ``evaluate(candidates, names)`` returns
one :class:`Evaluation` per candidate, memoised per (candidate,
workload-set) so strategies may re-request points for free:

- :class:`MatrixRunner` — the production path.  Each batch is read off
  one ``results_json`` document of the trace-once / replay-many engine
  (:func:`repro.system.sweep.evaluate_matrix` with its columnar replay
  and :class:`~repro.system.artifacts.ArtifactCache` layers), built
  serially, with ``jobs`` processes, or by a running ``repro serve``
  instance the batch is dispatched to via
  :class:`~repro.serve.client.ServeClient`.  JSON round-trips floats
  exactly, which is what makes the frontier byte-identical across the
  three modes.
- :class:`TraceRunner` — evaluates caller-supplied traces through the
  same sweep row (:func:`repro.system.sweep.replay_matrix`) and fold,
  whose float-operation sequence is that of the original exhaustive
  shape search (per-workload speedups multiplied in trace order, then
  one root), so it reproduces pre-``repro.dse`` shape rankings to the
  last bit.

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
from repro.system.config import SystemSpec
from repro.system.energy import EnergyParams
from repro.system.sweep import (
    RowStore,
    evaluate_matrix,
    matrix_suites,
    replay_matrix,
)
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


class _MatrixBacked(_RunnerBase):
    """A runner that scores each batch off one matrix document.

    The document has the shape of
    :meth:`~repro.system.sweep.MatrixResult.results_json`.  It is built
    inline by :func:`~repro.system.sweep.evaluate_matrix`, or taken from
    the ``matrix_json`` of one coalescable ``sweep`` job on a running
    ``repro serve`` instance or ``repro fleet`` coordinator.  JSON
    round-trips floats exactly, so both give the same scores bit for
    bit.
    """

    def __init__(self, workloads: Sequence[str],
                 energy_params: EnergyParams, jobs: int,
                 cache: Optional[ArtifactCache], client,
                 telemetry: Optional[Telemetry]):
        super().__init__(workloads, telemetry)
        self.energy_params = energy_params
        self.jobs = jobs
        self.cache = cache
        self.client = client
        #: the inline sweep rows every batch of this runner replays.
        self.row_store: RowStore = {}

    @property
    def _dispatched(self) -> bool:
        return self.client is not None

    def _matrix_systems(self, specs: Sequence[SystemSpec],
                        names: Sequence[str],
                        timing: Optional[TimingModel] = None
                        ) -> Dict[str, dict]:
        """The document's per-system entries, keyed by system name."""
        if self.client is None:
            document = evaluate_matrix(
                [spec.build(timing) for spec in specs], names=list(names),
                energy_params=self.energy_params, jobs=self.jobs,
                cache=self.cache, telemetry=self.telemetry,
                row_store=self.row_store).results_json()
        else:
            job = self.client.submit(
                "sweep", configs=[spec.to_dict() for spec in specs],
                names=list(names))
            document = self.client.wait(job["job_id"])["result"][
                "matrix_json"]
            self.stats.dispatched_batches += 1
        return {entry["system"]: entry
                for entry in json.loads(document)["systems"]}


class MatrixRunner(_MatrixBacked):
    """Evaluate batches through the matrix sweep engine or a service."""

    def __init__(self, space: ParameterSpace,
                 workloads: Optional[Sequence[str]] = None,
                 base_dim: Optional[DimParams] = None,
                 timing: Optional[TimingModel] = None,
                 energy_params: EnergyParams = EnergyParams(),
                 jobs: int = 1,
                 cache: Optional[ArtifactCache] = None, client=None,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(workloads if workloads is not None
                         else workload_names(), energy_params, jobs,
                         cache, client, telemetry)
        if client is not None and timing is not None \
                and timing != TimingModel():
            raise ValueError("serve dispatch evaluates under the "
                             "default timing model; drop the custom "
                             "timing or the client")
        self.space = space
        self.base_dim = base_dim
        self.timing = timing

    def _score_batch(self, batch, names):
        specs = [self.space.spec_of(c, self.base_dim) for c in batch]
        systems = self._matrix_systems(specs, names, self.timing)
        scored = []
        for candidate, spec in zip(batch, specs):
            name = spec.name
            entry = systems[name]
            scored.append((name, entry["geomean_speedup"],
                           entry["geomean_energy_ratio"],
                           self.space.gates_of(candidate)))
        return scored


class TraceRunner(_RunnerBase):
    """Evaluate candidates against pre-simulated traces.

    Each batch replays through :func:`~repro.system.sweep.replay_matrix`
    and folds through :func:`~repro.system.sweep.matrix_suites`: per
    workload speedups multiplied in trace-dict order, then one
    ``** (1/n)`` — the exact float operations of the original
    exhaustive shape search.  Every candidate of a trace shares the
    sweep row's :class:`~repro.system.colreplay.ColumnarContext`, which
    the runner keeps in its row store for its lifetime, so later batches
    reuse it.
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
        self.row_store: RowStore = {}

    def _score_batch(self, batch, names):
        configs = [self.space.spec_of(c, self.dim).build(self.timing)
                   for c in batch]
        traces = {name: trace for name, trace in self.traces.items()
                  if name in names}
        suites = matrix_suites(list(traces), configs,
                               replay_matrix(traces, configs,
                                             row_store=self.row_store),
                               self.energy_params)
        return [(config.name, suite.geomean_speedup,
                 suite.geomean_energy_ratio,
                 self.space.gates_of(candidate))
                for candidate, config, suite in zip(batch, configs, suites)]
