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
- a core tail after an array prefix, by (event code, start index);
- an array execution, by (configuration identity, events it
  consumed, outcome of the last branch it resolved), holding the
  configuration until the fold.

:func:`_fold` then prices each key once, times its count, into the core
counters and the :class:`~repro.dim.engine.DimStats`.  Integer sums
commute, so the totals equal per-event accounting exactly.  The fold
runs before the engine is read: by the telemetry counters and by the
report that renders the returned engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.cgra.configuration import ConfigBlock, Configuration
from repro.dim.engine import DimEngine
from repro.isa.opcodes import InstrClass
from repro.sim.stats import TimingModel
from repro.sim.trace import BasicBlock, BlockTable, Trace
from repro.system.config import SystemConfig
from repro.system.costmodel import BlockCostModel, shared_cost_model
from repro.system.metrics import SystemMetrics, _prefix_mem_ops

#: array executions: (configuration identity, events consumed, outcome
#: of the last branch resolved) -> [configuration, count]
Exits = Dict[Tuple[int, int, bool], list]


def baseline_metrics(trace: Trace,
                     timing: Optional[TimingModel] = None) -> SystemMetrics:
    """Cycles and events of the standalone MIPS core over a trace.

    Prices each distinct event code once, times its count.  Agrees
    exactly with :class:`repro.sim.cpu.Simulator` on the same program
    (asserted by the test suite).
    """
    timing = timing or TimingModel()
    model = shared_cost_model(timing)
    metrics = SystemMetrics(name="mips")
    table = trace.table
    for code, count in Counter(trace.events).items():
        _account_normal(metrics, model, table.get(code >> 1), 0, code & 1,
                        count)
    return metrics


def _account_normal(metrics: SystemMetrics, model: BlockCostModel,
                    block: BasicBlock, start_idx: int, taken: bool,
                    count: int) -> None:
    """Accumulate the cost of ``count`` normal executions of
    block[start_idx:] with the given terminator outcome."""
    cost = model.cost(block, start_idx)
    metrics.cycles += cost.cycles(taken) * count
    metrics.instructions += cost.instructions * count
    metrics.fetches += cost.fetches * count
    metrics.loads += cost.loads * count
    metrics.stores += cost.stores * count
    metrics.branches += cost.branches * count
    metrics.load_use_stalls += cost.load_use_stalls * count
    metrics.hilo_stalls += cost.hilo_stalls * count
    metrics.syscalls += cost.syscalls * count
    terminator = block.terminator
    if terminator is not None:
        if terminator.klass is InstrClass.JUMP or taken:
            metrics.taken_transfers += count


def _diverged(j: int, block: BasicBlock, code: int) -> None:
    """Raise for event ``j`` (``code``) that should have been
    ``block``'s: the trace left the configuration's chain."""
    raise RuntimeError(
        "trace/configuration divergence at event "
        f"{j}: expected block {block.block_id}, got {code >> 1}")


def _run_linear(engine: DimEngine, tails: Dict[Tuple[int, int], int],
                cfg: Configuration, events, i: int,
                seen: Set[int]) -> Tuple[int, bool]:
    """Execute one linear configuration; returns the next event index
    and the outcome of the last branch it resolved (False if none).

    One pass over the blocks, exiting at the first mis-speculated
    merged branch.  A block without its terminator ends the pass: its
    tail runs on the core, or, with nothing of it on the array, the
    event is reprocessed with a fresh lookup (matching the coupled
    simulator resuming at a block start).
    """
    j = i
    actual = False
    for cfg_block in cfg.blocks:
        block = cfg_block.block
        seen.add(block.start_pc)
        code = events[j]
        if code >> 1 != block.block_id:  # pragma: no cover
            _diverged(j, block, code)
        if not cfg_block.includes_terminator:
            if cfg_block.covered:
                key = (code, cfg_block.covered)
                tails[key] = tails.get(key, 0) + 1
                if block.is_conditional:
                    engine.observe_branch(block.branch_pc, bool(code & 1))
                j += 1
            break
        j += 1
        if block.terminator.klass is InstrClass.BRANCH:
            actual = bool(code & 1)
            if not engine.speculation_outcome(cfg, cfg_block, actual):
                break
    return j, actual


def _run_loop(engine: DimEngine, cfg: Configuration, events, i: int,
              seen: Set[int]) -> Tuple[int, bool]:
    """Execute one loop-kind configuration; returns the next event
    index and the outcome of the last branch it resolved.

    The array iterates the whole block chain until the back-edge
    resolves off the loop (a clean exit) or an interior merged branch
    mis-speculates.  Mirrored by ``CoupledSimulator._execute_array``
    and by the columnar loop template.
    """
    j = i
    blocks = cfg.blocks
    back = len(blocks) - 1
    while True:
        for q, cfg_block in enumerate(blocks):
            block = cfg_block.block
            seen.add(block.start_pc)
            code = events[j]
            if code >> 1 != block.block_id:  # pragma: no cover
                _diverged(j, block, code)
            j += 1
            if block.terminator.klass is InstrClass.BRANCH:
                actual = bool(code & 1)
                if q == back:
                    if not engine.loop_backedge(cfg, cfg_block, actual):
                        return j, actual
                elif not engine.speculation_outcome(cfg, cfg_block,
                                                    actual):
                    return j, actual


def _run_dual(engine: DimEngine, tails: Dict[Tuple[int, int], int],
              cfg: Configuration, events, i: int,
              seen: Set[int]) -> Tuple[int, bool]:
    """Execute one dual-kind configuration; returns the next event
    index and the outcome of the last branch it resolved.

    The chain walks exactly like a linear configuration until the final
    (predicated) branch: its resolution squashes the losing path's
    gated write-backs at no penalty, commits the winning path's covered
    prefix from the array, and the winner's tail executes normally on
    the core (mid-block resume — no cache lookup, matching the coupled
    simulator).
    """
    j = i
    *chain, predicated = cfg.blocks
    for cfg_block in chain:
        block = cfg_block.block
        seen.add(block.start_pc)
        code = events[j]
        if code >> 1 != block.block_id:  # pragma: no cover
            _diverged(j, block, code)
        j += 1
        if block.terminator.klass is InstrClass.BRANCH:
            actual = bool(code & 1)
            if not engine.speculation_outcome(cfg, cfg_block, actual):
                return j, actual
    block = predicated.block
    seen.add(block.start_pc)
    code = events[j]
    if code >> 1 != block.block_id:  # pragma: no cover
        _diverged(j, block, code)
    actual = bool(code & 1)
    winner = engine.dual_resolution(cfg, predicated, actual)
    block = winner.block
    seen.add(block.start_pc)
    j += 1
    code = events[j]
    if code >> 1 != block.block_id:  # pragma: no cover
        _diverged(j, block, code)
    key = (code, winner.covered)
    tails[key] = tails.get(key, 0) + 1
    if block.is_conditional:
        engine.observe_branch(block.branch_pc, bool(code & 1))
    return j + 1, actual


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
    #: core tails after an array prefix, by (event code, start index)
    tails: Dict[Tuple[int, int], int] = {}
    exits: Exits = {}
    events = trace.events
    n = len(events)
    i = 0
    while i < n:
        code = events[i]
        block = table.get(code >> 1)
        seen.add(block.start_pc)
        cfg = engine.lookup(block.start_pc)
        if cfg is None:
            normal[code] = normal.get(code, 0) + 1
            if block.is_conditional:
                engine.observe_branch(block.branch_pc, bool(code & 1))
            if i < n - 1:
                engine.consider_translation(block)
            i += 1
            continue
        cfg = engine.maybe_extend(cfg)
        kind = cfg.kind
        if kind == "loop":
            j, taken = _run_loop(engine, cfg, events, i, seen)
        elif kind == "dual":
            j, taken = _run_dual(engine, tails, cfg, events, i, seen)
        else:
            j, taken = _run_linear(engine, tails, cfg, events, i, seen)
        key = (id(cfg), j - i, taken)
        counted = exits.get(key)
        if counted is None:
            exits[key] = [cfg, 1]
        else:
            counted[1] += 1
        i = j

    metrics = SystemMetrics(name=name or config.name)
    _fold(metrics, shared_cost_model(config.timing), table, engine,
          normal, tails, exits)
    cache = engine.cache
    metrics.dim = engine.stats
    metrics.cache_lookups = cache.lookups
    metrics.cache_hits = cache.hits
    metrics.cache_insertions = cache.insertions
    metrics.cache_evictions = cache.evictions
    metrics.cache_invalidations = cache.invalidations
    metrics.predictor_accuracy = engine.predictor.accuracy
    if telemetry is not None and telemetry.enabled:
        from repro.obs.schema import engine_counters

        telemetry.count_many(engine_counters(engine))
    return metrics, engine


def _fold(metrics: SystemMetrics, model: BlockCostModel, table: BlockTable,
          engine: DimEngine, normal: Dict[int, int],
          tails: Dict[Tuple[int, int], int], exits: Exits) -> None:
    """Price what the replay counted: each key once, times its count."""
    for code, count in normal.items():
        _account_normal(metrics, model, table.get(code >> 1), 0,
                        code & 1, count)
    for (code, start), count in tails.items():
        _account_normal(metrics, model, table.get(code >> 1), start,
                        code & 1, count)
    penalty = engine.params.misspec_penalty
    for (_, consumed, taken), (cfg, count) in exits.items():
        metrics.cycles += engine.execution_cycles(cfg) * count
        engine.account_executions(cfg, count)
        blocks = cfg.blocks
        if cfg.kind == "loop":
            # every trip but the last continued at the back-edge
            size = len(blocks)
            trips = -(-consumed // size)
            _account_chain(metrics, engine, blocks,
                           blocks[-1].expected_taken, (trips - 1) * count)
            final = consumed - (trips - 1) * size
            _account_chain(metrics, engine, blocks[:final], taken, count)
            checks = trips if final == size else trips - 1
            metrics.cycles += (checks * cfg.loop_check_cycles
                               + (trips - 1) * cfg.trip_cycles) * count
            engine.account_trips(cfg, (trips - 1) * count)
            missed = final < size
        elif cfg.kind == "dual":
            missed = consumed < len(blocks)
            if missed:
                _account_chain(metrics, engine, blocks[:consumed], taken,
                               count)
            else:
                _account_chain(metrics, engine, blocks, taken, count)
                winner = cfg.dual_taken if taken else cfg.dual_fallthrough
                _account_prefix(metrics, engine, winner, count)
        else:
            chain = blocks[:consumed]
            _account_chain(metrics, engine, chain, taken, count)
            end = chain[-1]
            missed = end.includes_terminator \
                and end.block.terminator.klass is InstrClass.BRANCH \
                and taken != end.expected_taken
        if missed:
            metrics.cycles += penalty * count


def _account_prefix(metrics: SystemMetrics, engine: DimEngine,
                    cfg_block: ConfigBlock, count: int) -> None:
    """Accumulate ``count`` array commits of a block's covered prefix."""
    loads, stores = _prefix_mem_ops(cfg_block.block, cfg_block.covered)
    metrics.instructions += cfg_block.covered * count
    engine.stats.array_instructions += cfg_block.covered * count
    metrics.loads += loads * count
    metrics.stores += stores * count


def _account_chain(metrics: SystemMetrics, engine: DimEngine,
                   chain: Sequence[ConfigBlock], taken: Optional[bool],
                   count: int) -> None:
    """Accumulate ``count`` array commits of ``chain``: each block's
    covered prefix and merged terminator.  Every merged branch resolved
    as the configuration expected, except the last block's, which
    resolved ``taken``."""
    last = len(chain) - 1
    branches = transfers = 0
    for q, cfg_block in enumerate(chain):
        _account_prefix(metrics, engine, cfg_block, count)
        if cfg_block.includes_terminator:
            branches += 1
            if cfg_block.block.terminator.klass is not InstrClass.BRANCH:
                transfers += 1  # unconditional j
            elif (taken if q == last else cfg_block.expected_taken):
                transfers += 1
    metrics.instructions += branches * count
    engine.stats.array_instructions += branches * count
    metrics.branches += branches * count
    metrics.taken_transfers += transfers * count
