"""Matrix sweep engine: trace-once / replay-many design-space evaluation.

The paper's headline results are a *matrix* — 18 workloads crossed with
~19 system configurations — but evaluating it as independent (workload,
system) cells repeats enormous amounts of work: the functional trace of
a workload is configuration-independent, the standalone-MIPS baseline
depends only on (trace, timing model), and the DIM translations of two
systems that differ only in reconfiguration-cache slots are identical.

This module evaluates the whole matrix with maximal sharing, in three
layers:

1. **Trace once per row** — each workload is simulated at most once per
   sweep no matter how many configurations replay it; cells fan out over
   a per-workload work unit, the *row* (serial or across a process
   pool).
2. **Columnar replay** — all configurations of one workload share one
   :class:`~repro.system.colreplay.ColumnarContext`: the trace is
   lowered to arrays once, and configurations differing only in cache
   slots (or timing) reuse DIM translation + CGRA line allocation
   instead of recomputing it.
3. **Persistent artifacts** — traces, baselines and per-cell metrics are
   stored in a content-addressed on-disk cache
   (:mod:`repro.system.artifacts`) keyed by workload source, timing
   model and a fingerprint of the package source, so cold processes,
   repeated bench runs and CI skip tracing (and replaying) entirely.

A row's trace and context live as long as the caller keeps them.  A
call without a :data:`RowStore` frees each row once its cells are
folded, and tracing keeps no program, so memory peaks at the largest
row; callers that replay the same rows batch after batch pass a store
they own.

All three layers are transparent: :func:`evaluate_matrix` output is
byte-identical to looping the event-driven reference
:func:`repro.system.traceeval.evaluate_trace` over the same cells,
serial or parallel, cold or warm cache, observed or silent — the test
suite asserts this.  An observed sweep runs the same columnar code and
reads each live cell's engine counters off its metrics.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs import Telemetry
from repro.obs.schema import metrics_counters, sweep_counters, sweep_timers
from repro.sim.coltrace import ColumnarTrace
from repro.sim.stats import TimingModel
from repro.sim.trace import Trace
from repro.system.artifacts import ArtifactCache
from repro.system.colreplay import (
    ColumnarContext,
    baseline_metrics_columnar,
    evaluate_trace_columnar,
)
from repro.system.config import (
    PAPER_CACHE_SLOTS,
    SystemConfig,
    paper_system,
)
from repro.system.energy import EnergyParams
from repro.system.metrics import SystemMetrics
from repro.workloads import get_workload, trace_workload, workload_names

if TYPE_CHECKING:
    from repro.workloads.suite import SuiteResult

#: A caller-owned store of sweep rows, for callers that replay the same
#: rows call after call: workload name -> (the workload source the row
#: was traced from, or None for a caller-supplied trace; the row's
#: :class:`ColumnarContext`, which holds its trace).  A row is reused
#: only while its tag still matches, so a name registered again with
#: another source never reaches the old row.
RowStore = Dict[str, Tuple[Optional[str], ColumnarContext]]


def paper_matrix() -> List[SystemConfig]:
    """Table 2's system list: C1-C3 x {no-spec, spec} x {16, 64, 256}
    slots, plus the two Ideal columns — 20 configurations."""
    configs = [paper_system(array, slots, spec)
               for array in ("C1", "C2", "C3")
               for spec in (False, True)
               for slots in PAPER_CACHE_SLOTS]
    configs += [paper_system("ideal", speculation=spec)
                for spec in (False, True)]
    return configs


# ----------------------------------------------------------------------
# Instrumentation.
# ----------------------------------------------------------------------
@dataclass
class SweepInstrumentation:
    """Phase timings and cache counters for one matrix evaluation."""

    workloads: int = 0
    systems: int = 0
    cells: int = 0
    jobs: int = 1
    #: wall-clock of the whole evaluate_matrix call.
    total_seconds: float = 0.0
    #: time spent obtaining traces (simulation or artifact load).
    #: Phase seconds are summed over pool workers, so with ``jobs > 1``
    #: they can exceed ``total_seconds``.
    trace_seconds: float = 0.0
    #: time spent replaying cells (baselines + accelerated metrics),
    #: excluding obtaining the trace and lowering it to columns.
    replay_seconds: float = 0.0
    #: how each workload's trace was obtained.
    traces_simulated: int = 0
    traces_from_disk: int = 0
    traces_in_memory: int = 0
    #: per-cell outcome: replayed live vs served from disk artifacts.
    cells_replayed: int = 0
    cells_from_disk: int = 0
    baselines_computed: int = 0
    baselines_from_disk: int = 0
    #: columnar translation-reuse totals across all workloads
    #: (:attr:`ColumnarContext.alloc_hits` / ``alloc_misses``).
    alloc_hits: int = 0
    alloc_misses: int = 0
    #: artifact-cache totals (trace + baseline + metrics lookups).
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_stores: int = 0
    #: damaged artifact records dropped on load (each also a miss).
    artifact_corrupt: int = 0

    @property
    def alloc_hit_rate(self) -> float:
        total = self.alloc_hits + self.alloc_misses
        return self.alloc_hits / total if total else 0.0

    @property
    def artifact_hit_rate(self) -> float:
        total = self.artifact_hits + self.artifact_misses
        return self.artifact_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["alloc_hit_rate"] = self.alloc_hit_rate
        payload["artifact_hit_rate"] = self.artifact_hit_rate
        return payload

    # The fields keep their own names: instrumentation_json publishes
    # them as-is, and the dotted repro.obs names are not identifiers.
    # counters()/timer_values() project the record onto that schema.
    def counters(self) -> Dict[str, int]:
        """This record under the unified ``sweep.*`` counter schema."""
        return sweep_counters(self)

    def timer_values(self) -> Dict[str, float]:
        """Phase timings under the unified ``sweep.*`` timer schema."""
        return sweep_timers(self)

    def merge_counters(self, other: "SweepInstrumentation") -> None:
        """Fold a worker's counters into this (parent) record."""
        for name in ("trace_seconds", "replay_seconds",
                     "traces_simulated", "traces_from_disk",
                     "traces_in_memory", "cells_replayed",
                     "cells_from_disk", "baselines_computed",
                     "baselines_from_disk", "alloc_hits", "alloc_misses",
                     "artifact_hits", "artifact_misses",
                     "artifact_stores", "artifact_corrupt"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


# ----------------------------------------------------------------------
# Artifact keys.
# ----------------------------------------------------------------------
#: the timing model the functional tracer runs under (traces themselves
#: are timing-independent, but the key records the model for provenance
#: and forward-compatibility with configurable tracers).
TRACE_TIMING = TimingModel()


def trace_artifact_key(cache: ArtifactCache, name: str) -> str:
    source = get_workload(name).source
    return cache.key("trace", name, source, TRACE_TIMING)


def baseline_artifact_key(cache: ArtifactCache, name: str,
                          timing: TimingModel) -> str:
    source = get_workload(name).source
    return cache.key("baseline", name, source, TRACE_TIMING, timing)


def metrics_artifact_key(cache: ArtifactCache, name: str,
                         config: SystemConfig) -> str:
    source = get_workload(name).source
    return cache.key("metrics", name, source, TRACE_TIMING, config)


def coltrace_artifact_key(cache: ArtifactCache, name: str) -> str:
    """Key of the persisted columnar lowering (the predictor timelines
    built so far, plus the event count they cover)."""
    source = get_workload(name).source
    return cache.key("coltrace", name, source, TRACE_TIMING)


# ----------------------------------------------------------------------
# Trace acquisition (layer 1 + layer 3).
# ----------------------------------------------------------------------
def _obtain_trace(name: str, cache: Optional[ArtifactCache],
                  inst: SweepInstrumentation) -> Trace:
    """One workload's trace: a run a :func:`run_workload` caller left in
    memory, the disk artifact, or a fresh trace (which nothing in the
    process keeps)."""
    from repro.workloads import _RUNS  # the run_workload cache

    start = time.perf_counter()
    try:
        cached_run = _RUNS.get(name)
        if cached_run is not None and cached_run.trace is not None:
            inst.traces_in_memory += 1
            return cached_run.trace
        if cache is not None:
            key = trace_artifact_key(cache, name)
            trace = cache.load(key)
            if trace is not None:
                inst.traces_from_disk += 1
                return trace
        trace = trace_workload(name)
        inst.traces_simulated += 1
        if cache is not None:
            cache.store(key, trace)
        return trace
    finally:
        inst.trace_seconds += time.perf_counter() - start


def _lowered(name: str, trace: Trace, cache: Optional[ArtifactCache]
             ) -> Tuple[ColumnarContext, bool]:
    """A fresh context for ``trace``, seeded from its stored lowering;
    the flag says whether one was stored."""
    coltrace: Optional[ColumnarTrace] = None
    if cache is not None:
        payload = cache.load(coltrace_artifact_key(cache, name))
        if payload is not None:
            coltrace = ColumnarTrace.from_payload(trace, payload)
    return (ColumnarContext(trace, name=name, coltrace=coltrace),
            coltrace is not None)


def _workload_row(name: str, cache: Optional[ArtifactCache],
                  row_store: Optional[RowStore],
                  inst: SweepInstrumentation
                  ) -> Tuple[ColumnarContext, bool]:
    """The context of a registered workload's row: from ``row_store``
    while its source is unchanged, otherwise traced (or loaded) and
    lowered."""
    source = get_workload(name).source
    entry = row_store.get(name) if row_store is not None else None
    if entry is not None and entry[0] == source:
        inst.traces_in_memory += 1
        return entry[1], True
    context, loaded = _lowered(name, _obtain_trace(name, cache, inst),
                               cache)
    if row_store is not None:
        row_store[name] = (source, context)
    return context, loaded


def _trace_row(name: str, trace: Trace, cache: Optional[ArtifactCache],
               row_store: Optional[RowStore], _inst: SweepInstrumentation
               ) -> Tuple[ColumnarContext, bool]:
    """The context of a caller-supplied trace's row, from ``row_store``
    while it holds this very trace object (no trace counter moves: the
    caller obtained the trace)."""
    entry = row_store.get(name) if row_store is not None else None
    if entry is not None and entry[1].trace is trace:
        return entry[1], True
    context, loaded = _lowered(name, trace, cache)
    if row_store is not None:
        row_store[name] = (None, context)
    return context, loaded


# ----------------------------------------------------------------------
# Replay (layer 2 + layer 3).
# ----------------------------------------------------------------------
#: one workload row: a baseline per core timing model, and one
#: accelerated metrics per configuration.
Row = Tuple[Dict[TimingModel, SystemMetrics], List[SystemMetrics]]


def _sweep_workload(name: str,
                    context_of: Callable[[SweepInstrumentation],
                                         Tuple[ColumnarContext, bool]],
                    configs: Sequence[SystemConfig],
                    cache: Optional[ArtifactCache],
                    telemetry=None
                    ) -> Tuple[Dict[TimingModel, SystemMetrics],
                               List[SystemMetrics], SweepInstrumentation]:
    """All cells of one workload row, with maximal sharing.

    ``context_of`` supplies the row's columnar context and whether its
    lowering was already stored; it is called at most once, and only
    when a cell or baseline misses the artifact ``cache``.  The context
    lives as long as whoever ``context_of`` got it from keeps it: a
    one-shot row is freed when this call returns.
    Returns the per-timing baselines, one accelerated metrics per
    configuration, and the row's instrumentation counters.  An enabled
    ``telemetry`` sink receives one ``sweep.cell_replayed`` event per
    live cell and that cell's ``dim.*``/``dynflow.*``/``rcache.*``/
    ``predictor.*`` counters, read off its metrics and the workload's
    predictor timeline; it never changes the metrics.
    """
    inst = SweepInstrumentation()
    observing = telemetry is not None and telemetry.enabled
    # a serial sweep shares one cache across rows: count this row's
    # lookups and stores only.
    if cache is not None:
        hits0, misses0, stores0 = cache.hits, cache.misses, cache.stores
        corrupt0 = cache.corrupt

    # shared columnar state: one lowered trace + translation caches for
    # every configuration of the row, seeded from (and persisted back
    # to) the artifact cache.
    context: Optional[ColumnarContext] = None
    coltrace_loaded = False
    timelines_loaded = 0

    def ensure_context() -> ColumnarContext:
        nonlocal context, coltrace_loaded, timelines_loaded
        if context is None:
            context, coltrace_loaded = context_of(inst)
            timelines_loaded = context.coltrace.timelines_built
        return context

    # accelerated metrics, one per configuration, disk-cached per cell
    cell_metrics: List[Optional[SystemMetrics]] = []
    for config in configs:
        metrics = None
        if cache is not None:
            metrics = cache.load(metrics_artifact_key(cache, name, config))
        if metrics is not None:
            inst.cells_from_disk += 1
        cell_metrics.append(metrics)
    for index, config in enumerate(configs):
        if cell_metrics[index] is not None:
            continue
        ctx = ensure_context()
        replay_start = time.perf_counter()
        metrics = evaluate_trace_columnar(ctx.trace, config, name=name,
                                          context=ctx)
        inst.replay_seconds += time.perf_counter() - replay_start
        inst.cells_replayed += 1
        if observing:
            telemetry.emit("sweep.cell_replayed", workload=name,
                           system=config.name, cycles=metrics.cycles)
            telemetry.count_many(metrics_counters(
                metrics,
                ctx.coltrace.timeline(config.dim.predictor_entries)))
        if cache is not None:
            cache.store(metrics_artifact_key(cache, name, config),
                        metrics)
        cell_metrics[index] = metrics

    # baselines, one per distinct core timing model
    baselines: Dict[TimingModel, SystemMetrics] = {}
    for config in configs:
        if config.timing in baselines:
            continue
        base = None
        if cache is not None:
            base = cache.load(
                baseline_artifact_key(cache, name, config.timing))
        if base is None:
            ctx = ensure_context()
            replay_start = time.perf_counter()
            base = baseline_metrics_columnar(ctx, config.timing)
            inst.replay_seconds += time.perf_counter() - replay_start
            inst.baselines_computed += 1
            if cache is not None:
                cache.store(
                    baseline_artifact_key(cache, name, config.timing),
                    base)
        else:
            inst.baselines_from_disk += 1
        baselines[config.timing] = base

    if context is not None:
        inst.alloc_hits += context.alloc_hits
        inst.alloc_misses += context.alloc_misses
        context.alloc_hits = 0
        context.alloc_misses = 0
        if cache is not None and (
                not coltrace_loaded
                or context.coltrace.timelines_built != timelines_loaded):
            cache.store(coltrace_artifact_key(cache, name),
                        context.coltrace.to_payload())
    if cache is not None:
        inst.artifact_hits = cache.hits - hits0
        inst.artifact_misses = cache.misses - misses0
        inst.artifact_stores = cache.stores - stores0
        inst.artifact_corrupt = cache.corrupt - corrupt0
    return baselines, cell_metrics, inst


def replay_matrix(traces: Mapping[str, Trace],
                  configs: Sequence[SystemConfig],
                  cache: Optional[ArtifactCache] = None,
                  row_store: Optional[RowStore] = None
                  ) -> Dict[str, Row]:
    """The row of every caller-supplied trace under ``configs``.

    The metrics-level sibling of :func:`evaluate_matrix`: each trace
    replays through the same row as a sweep, so its configurations
    share one :class:`ColumnarContext`.  Without ``row_store`` that
    context is freed once the row is folded; a caller that replays the
    same traces batch after batch passes one :data:`RowStore`, and a
    later call given the same trace object reuses its context.  Returns
    ``{name: (baselines, cells)}`` in trace order.  ``cache`` is used
    only for traces named after a registered workload; other rows never
    touch the artifact store.
    """
    known = set(workload_names())
    rows: Dict[str, Row] = {}
    for name, trace in traces.items():
        row_cache = cache if name in known else None
        baselines, cells, _ = _sweep_workload(
            name, partial(_trace_row, name, trace, row_cache, row_store),
            configs, row_cache)
        rows[name] = (baselines, cells)
    return rows


def _matrix_worker(args):
    """Process-pool entry point: one workload row of the matrix.

    When telemetry is requested the worker collects into a private
    :class:`~repro.obs.Telemetry` and returns its plain-data payload;
    the parent re-emits in task order, so the merged stream is
    deterministic regardless of worker scheduling.
    """
    name, configs, cache_root, events_max = args
    cache = ArtifactCache(cache_root) if cache_root is not None else None
    telemetry = Telemetry(events_max) if events_max is not None else None
    baselines, cell_metrics, inst = _sweep_workload(
        name, partial(_workload_row, name, cache, None), configs,
        cache, telemetry)
    payload = telemetry.export_payload() if telemetry is not None else None
    return name, baselines, cell_metrics, inst, payload


# ----------------------------------------------------------------------
# The matrix API.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixResult:
    """Everything one matrix evaluation produced."""

    names: List[str]
    suites: List[SuiteResult]
    instrumentation: SweepInstrumentation = field(
        default_factory=SweepInstrumentation)
    #: the telemetry sink passed to evaluate_matrix, if any.
    telemetry: Optional[Telemetry] = None

    def suite(self, system: str) -> SuiteResult:
        for candidate in self.suites:
            if candidate.system == system:
                return candidate
        raise KeyError(f"no system {system!r} in this matrix")

    def results_json(self) -> str:
        """Deterministic report of the matrix results.

        Byte-identical across serial/parallel execution and cold/warm
        artifact caches; instrumentation (which carries timings) is
        deliberately excluded — see :meth:`instrumentation_json`.
        """
        return json.dumps({
            "workloads": self.names,
            "systems": [{
                "system": suite.system,
                "geomean_speedup": suite.geomean_speedup,
                "geomean_energy_ratio": suite.geomean_energy_ratio,
                "results": [r.as_dict() for r in suite.results],
            } for suite in self.suites],
        }, indent=2)

    def instrumentation_json(self) -> str:
        return json.dumps(self.instrumentation.as_dict(), indent=2)

    def telemetry_json(self) -> str:
        """The run's telemetry under the unified ``repro.obs`` schema.

        Works whether or not a sink was injected: without one, the
        sweep instrumentation counters are projected onto the schema on
        the fly (with an empty event stream).
        """
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            telemetry = Telemetry(max_events=None)
            telemetry.count_many(self.instrumentation.counters())
            for name, secs in self.instrumentation.timer_values().items():
                telemetry.add_time(name, secs)
        return telemetry.to_json()


def matrix_slice(matrix: MatrixResult,
                 configs: Sequence[SystemConfig]) -> MatrixResult:
    """The sub-matrix of ``matrix`` covering exactly ``configs``.

    This is the batch-replay entry point the evaluation service
    (:mod:`repro.serve`) builds on: one superset matrix is evaluated
    for a whole coalesced batch, then each job's result is sliced out.
    Because :func:`evaluate_matrix` cells are independent of which
    other configurations share the matrix, the slice's
    :meth:`MatrixResult.results_json` is byte-identical to evaluating
    only ``configs`` — the differential tests in
    ``tests/test_serve.py`` enforce this.

    Raises :class:`KeyError` if a requested configuration was not part
    of ``matrix``.  Instrumentation is shared with the parent matrix
    (it describes the evaluation that actually ran, not the slice).
    """
    suites = [matrix.suite(config.name) for config in configs]
    return MatrixResult(names=list(matrix.names), suites=suites,
                        instrumentation=matrix.instrumentation,
                        telemetry=matrix.telemetry)


def matrix_suites(names: Sequence[str], configs: Sequence[SystemConfig],
                  rows: Mapping[str, Row],
                  energy_params: EnergyParams = EnergyParams()
                  ) -> List[SuiteResult]:
    """Fold workload rows into one :class:`SuiteResult` per
    configuration, workloads in ``names`` order.

    The one place (baseline, cell) pairs become result rows for a
    matrix; every geomean a sweep, a DSE runner or a bench reports
    multiplies these rows in this order.
    """
    # deferred to dodge the repro.workloads.suite <-> repro.system cycle
    from repro.workloads.suite import SuiteResult, result_from_metrics

    return [SuiteResult(config.name, [
        result_from_metrics(name, config, rows[name][0][config.timing],
                            rows[name][1][index], energy_params)
        for name in names]) for index, config in enumerate(configs)]


def evaluate_matrix(configs: Sequence[SystemConfig],
                    names: Optional[Iterable[str]] = None,
                    energy_params: EnergyParams = EnergyParams(),
                    jobs: int = 1,
                    cache: Optional[ArtifactCache] = None,
                    telemetry: Optional[Telemetry] = None,
                    row_store: Optional[RowStore] = None
                    ) -> MatrixResult:
    """Evaluate the full workloads x configurations matrix.

    Every cell is byte-identical (as JSON) to evaluating it alone with
    the event-driven :func:`evaluate_trace` — the sharing layers never
    change numbers, only wall-clock.  ``jobs > 1`` fans workload rows
    across a process pool.  Without ``row_store`` the call is one-shot:
    each workload row (trace, columnar context) is freed once its cells
    and baselines are folded, and tracing keeps no program
    (:func:`~repro.workloads.trace_workload`), so memory peaks at the
    largest row.  A caller
    that evaluates the same workloads batch after batch passes one
    :data:`RowStore` it owns, and serial calls reuse its rows (pool
    workers neither read nor fill it).  Pass ``cache`` to persist and
    reuse trace/baseline/metrics artifacts across processes.  Pass
    ``telemetry`` to collect one ``sweep.cell_replayed`` event and the
    engine counters of every live cell plus the ``sweep.*`` counters and
    timers (:mod:`repro.obs`); an observed matrix runs the same columnar
    code as a silent one, so results are identical with or without it,
    for any ``jobs``.
    """
    start = time.perf_counter()
    configs = list(configs)
    names = list(names) if names is not None else workload_names()
    inst = SweepInstrumentation(workloads=len(names), systems=len(configs),
                                cells=len(names) * len(configs),
                                jobs=max(1, jobs))
    observing = telemetry is not None and telemetry.enabled

    rows: Dict[str, Row] = {}
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        events_max = None
        if observing:
            events_max = (telemetry.events.max_events
                          if telemetry.events is not None else 0)
        tasks = [(name, configs,
                  cache.root if cache is not None else None, events_max)
                 for name in names]
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            for name, baselines, cells, row_inst, payload in pool.map(
                    _matrix_worker, tasks):
                rows[name] = (baselines, cells)
                inst.merge_counters(row_inst)
                if observing and payload is not None:
                    telemetry.absorb(*payload)
    else:
        for name in names:
            baselines, cells, row_inst = _sweep_workload(
                name, partial(_workload_row, name, cache, row_store),
                configs, cache, telemetry)
            rows[name] = (baselines, cells)
            inst.merge_counters(row_inst)

    suites = matrix_suites(names, configs, rows, energy_params)
    inst.total_seconds = time.perf_counter() - start
    if observing:
        telemetry.count_many(inst.counters())
        for timer_name, seconds in inst.timer_values().items():
            telemetry.add_time(timer_name, seconds)
    return MatrixResult(names=names, suites=suites, instrumentation=inst,
                        telemetry=telemetry)
