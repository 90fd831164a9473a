"""Fast trace-driven evaluation of a DIM system.

Replays a basic-block trace (from one plain functional run) through the
same :class:`~repro.dim.engine.DimEngine` the coupled simulator uses.
Because block costs are static (see :mod:`repro.system.costmodel`) and
DIM's state machine depends only on block identities and branch
outcomes, the replay is cycle-exact with respect to the coupled
simulator — the test suite asserts this.  It is the single-run engine:
:func:`repro.api.run` (``repro run`` and serve ``"run"`` jobs) executes
the program once, traced, and computes the accelerated metrics here.
It is also the event-by-event reference the columnar engine
(:mod:`repro.system.colreplay`) is tested against.  With a
``telemetry`` sink it emits the per-event engine stream and folds the
engine counters an observed sweep reads off its columnar metrics.

The replay counts now and prices once.  Per event it does only what
depends on order: cache lookups, predictor updates, translation and
extension triggers, speculation, flush and retirement outcomes, the
trace/configuration divergence check, and every telemetry event.  What
an event costs is a constant of a key, so the replay only counts keys:

- a whole block run on the core, by event code;
- an array execution, by configuration and exit code (the codes of
  :mod:`repro.system.costmodel`, which the columnar engine shares),
  plus the extra trips of loop configurations.

:func:`_fold` then prices each key once, times its count, with the
cost model's rows and :func:`~repro.system.costmodel.fold_executions`.
Integer sums commute, so the totals equal per-event accounting exactly.
The fold runs before the engine is read: by the telemetry counters and
by the report that renders the returned engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.cgra.configuration import Configuration
from repro.dim.engine import DimEngine
from repro.sim.stats import TimingModel
from repro.sim.trace import BasicBlock, BlockTable, Trace
from repro.system.config import SystemConfig
from repro.system.costmodel import (
    NFIELDS,
    add_row,
    core_row,
    exit_code_count,
    exit_rows,
    fold_executions,
    shared_cost_model,
)
from repro.system.metrics import SystemMetrics

#: array executions: configuration identity -> (configuration, one count
#: per exit code then the extra loop trips)
Exits = Dict[int, Tuple[Configuration, List[int]]]


def baseline_metrics(trace: Trace,
                     timing: Optional[TimingModel] = None) -> SystemMetrics:
    """Cycles and events of the standalone MIPS core over a trace.

    Prices each distinct event code once, times its count.  Agrees
    exactly with :class:`repro.sim.cpu.Simulator` on the same program
    (asserted by the test suite).
    """
    model = shared_cost_model(timing or TimingModel())
    table = trace.table
    totals = [0] * NFIELDS
    for code, count in Counter(trace.events).items():
        add_row(totals, core_row(model, table.get(code >> 1), code & 1),
                count)
    return SystemMetrics.from_totals("mips", totals)


def _diverged(j: int, block: BasicBlock, event: int) -> None:
    """Raise for event ``j`` (code ``event``) that should have been
    ``block``'s: the trace left the configuration's chain."""
    raise RuntimeError(
        "trace/configuration divergence at event "
        f"{j}: expected block {block.block_id}, got {event >> 1}")


def _run_linear(engine: DimEngine, cfg: Configuration, events,
                i: int) -> Tuple[int, int, int]:
    """Execute one linear configuration; returns the next event index,
    the exit code and no extra trips.

    One pass over the blocks, exiting at the first mis-speculated
    merged branch.  The final block never includes its terminator: its
    tail runs on the core, or, with nothing of it on the array, the
    event is reprocessed with a fresh lookup (matching the coupled
    simulator resuming at a block start).
    """
    j = i
    *chain, last = cfg.blocks
    for q, cfg_block in enumerate(chain):
        block = cfg_block.block
        event = events[j]
        if event >> 1 != block.block_id:  # pragma: no cover
            _diverged(j, block, event)
        j += 1
        if block.is_conditional and not engine.speculation_outcome(
                cfg, cfg_block, bool(event & 1)):
            return j, 3 + q, 0
    block = last.block
    event = events[j]
    if event >> 1 != block.block_id:  # pragma: no cover
        _diverged(j, block, event)
    if not last.covered:
        return j, 0, 0
    if block.is_conditional:
        engine.observe_branch(block.branch_pc, bool(event & 1))
    return j + 1, 1 + (event & 1), 0


def _run_loop(engine: DimEngine, cfg: Configuration, events,
              i: int) -> Tuple[int, int, int]:
    """Execute one loop-kind configuration; returns the next event
    index, the exit code and the extra trips.

    The array iterates the whole block chain until the back-edge
    resolves off the loop (a clean exit) or an interior merged branch
    mis-speculates.  Mirrored by ``CoupledSimulator._execute_array``
    and by the columnar ``_Path.loop_exit``.
    """
    j = i
    blocks = cfg.blocks
    back = len(blocks) - 1
    trips = 0
    while True:
        for q, cfg_block in enumerate(blocks):
            block = cfg_block.block
            event = events[j]
            if event >> 1 != block.block_id:  # pragma: no cover
                _diverged(j, block, event)
            j += 1
            if block.is_conditional:
                actual = bool(event & 1)
                if q == back:
                    if not engine.loop_backedge(cfg, cfg_block, actual):
                        return j, 0, trips
                elif not engine.speculation_outcome(cfg, cfg_block,
                                                    actual):
                    return j, 1 + q, trips
        trips += 1


def _run_dual(engine: DimEngine, cfg: Configuration, events,
              i: int) -> Tuple[int, int, int]:
    """Execute one dual-kind configuration; returns the next event
    index, the exit code and no extra trips.

    The chain walks exactly like a linear configuration until the final
    (predicated) branch: its resolution squashes the losing path's
    gated write-backs at no penalty, commits the winning path's covered
    prefix from the array, and the winner's tail executes normally on
    the core (mid-block resume — no cache lookup, matching the coupled
    simulator).
    """
    j = i
    *chain, predicated = cfg.blocks
    for q, cfg_block in enumerate(chain):
        block = cfg_block.block
        event = events[j]
        if event >> 1 != block.block_id:  # pragma: no cover
            _diverged(j, block, event)
        j += 1
        if block.is_conditional and not engine.speculation_outcome(
                cfg, cfg_block, bool(event & 1)):
            return j, 4 + q, 0
    block = predicated.block
    event = events[j]
    if event >> 1 != block.block_id:  # pragma: no cover
        _diverged(j, block, event)
    actual = event & 1
    winner = engine.dual_resolution(cfg, predicated, bool(actual))
    block = winner.block
    j += 1
    event = events[j]
    if event >> 1 != block.block_id:  # pragma: no cover
        _diverged(j, block, event)
    if block.is_conditional:
        engine.observe_branch(block.branch_pc, bool(event & 1))
    return j + 1, 2 * actual + (event & 1), 0


def evaluate_trace(trace: Trace, config: SystemConfig,
                   name: str = "",
                   memo=None,
                   telemetry=None) -> SystemMetrics:
    """Replay a trace through a DIM system; returns its metrics.

    The replay mirrors :class:`repro.system.coupled.CoupledSimulator`
    decision for decision: same lookup points, same translation and
    extension triggers, same speculation resolution and flush policy.
    ``memo``, an optional :class:`~repro.dim.memo.TranslationMemo`,
    shares translation work with other evaluations of the same trace;
    it never changes the returned metrics.  (It is left unannotated so
    the annotations resolve at runtime while a single run, which passes
    none, never imports the memo.)  ``telemetry`` optionally injects a
    :class:`repro.obs.Telemetry` sink; telemetry is purely
    observational, so metrics are identical with or without it.
    """
    return _replay(trace, config, name, memo, telemetry)[0]


def _replay(trace: Trace, config: SystemConfig, name: str, memo,
            telemetry) -> Tuple[SystemMetrics, DimEngine]:
    """:func:`evaluate_trace`'s metrics, and the engine that replayed
    the trace (:mod:`repro.system.report` renders its cache)."""
    table = trace.table
    seen: Set[int] = set()

    def provider(pc: int) -> Optional[BasicBlock]:
        if pc not in seen:
            return None
        return table.get_by_pc(pc)

    engine = DimEngine(config.shape, config.dim, provider,
                       translation_memo=memo, telemetry=telemetry)
    #: whole blocks run on the core, by event code
    normal: Dict[int, int] = {}
    exits: Exits = {}
    events = trace.events
    n = len(events)
    i = 0
    while i < n:
        event = events[i]
        block = table.get(event >> 1)
        seen.add(block.start_pc)
        cfg = engine.lookup(block.start_pc)
        if cfg is None:
            normal[event] = normal.get(event, 0) + 1
            if block.is_conditional:
                engine.observe_branch(block.branch_pc, bool(event & 1))
            if i < n - 1:
                engine.consider_translation(block)
            i += 1
            continue
        cfg = engine.maybe_extend(cfg)
        kind = cfg.kind
        if kind == "loop":
            i, code, trips = _run_loop(engine, cfg, events, i)
        elif kind == "dual":
            i, code, trips = _run_dual(engine, cfg, events, i)
        else:
            i, code, trips = _run_linear(engine, cfg, events, i)
        counted = exits.get(id(cfg))
        if counted is None:
            counted = exits[id(cfg)] = (cfg,
                                        [0] * (exit_code_count(cfg) + 1))
        hist = counted[1]
        hist[code] += 1
        hist[-1] += trips

    cache = engine.cache
    metrics = SystemMetrics.from_totals(
        name or config.name, _fold(engine, config.timing, table, normal,
                                   exits),
        dim=engine.stats,
        cache_lookups=cache.lookups,
        cache_hits=cache.hits,
        cache_insertions=cache.insertions,
        cache_evictions=cache.evictions,
        cache_invalidations=cache.invalidations,
        predictor_accuracy=engine.predictor.accuracy)
    if telemetry is not None and telemetry.enabled:
        from repro.obs.schema import engine_counters

        telemetry.count_many(engine_counters(engine))
    return metrics, engine


def _fold(engine: DimEngine, timing: TimingModel, table: BlockTable,
          normal: Dict[int, int], exits: Exits) -> List[int]:
    """Price what the replay counted, each key once, times its count:
    returns the cost totals and adds the array fields to the engine's
    stats."""
    model = shared_cost_model(timing)
    totals = [0] * NFIELDS
    for event, count in normal.items():
        add_row(totals, core_row(model, table.get(event >> 1), event & 1),
                count)
    for cfg, hist in exits.values():
        fold_executions(totals, engine.stats, cfg, hist,
                        exit_rows(cfg, model), engine.params)
    return totals
