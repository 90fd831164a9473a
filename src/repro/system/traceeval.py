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
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.dim.engine import DimEngine
from repro.isa.opcodes import InstrClass
from repro.sim.stats import TimingModel
from repro.sim.trace import BasicBlock, Trace
from repro.system.config import SystemConfig
from repro.system.costmodel import BlockCostModel, shared_cost_model
from repro.system.metrics import SystemMetrics, _prefix_mem_ops


def baseline_metrics(trace: Trace,
                     timing: Optional[TimingModel] = None) -> SystemMetrics:
    """Cycles and events of the standalone MIPS core over a trace.

    Agrees exactly with :class:`repro.sim.cpu.Simulator` on the same
    program (asserted by the test suite).
    """
    timing = timing or TimingModel()
    model = shared_cost_model(timing)
    metrics = SystemMetrics(name="mips")
    table = trace.table
    for code in trace.events:
        _account_normal(metrics, model, table.get(code >> 1), 0, code & 1)
    return metrics


def _account_normal(metrics: SystemMetrics, model: BlockCostModel,
                    block: BasicBlock, start_idx: int, taken: bool) -> None:
    """Accumulate the cost of normally executing block[start_idx:]."""
    cost = model.cost(block, start_idx)
    metrics.cycles += cost.cycles(taken)
    metrics.instructions += cost.instructions
    metrics.fetches += cost.fetches
    metrics.loads += cost.loads
    metrics.stores += cost.stores
    metrics.branches += cost.branches
    metrics.load_use_stalls += cost.load_use_stalls
    metrics.hilo_stalls += cost.hilo_stalls
    metrics.syscalls += cost.syscalls
    terminator = block.terminator
    if terminator is not None:
        if terminator.klass is InstrClass.JUMP or taken:
            metrics.taken_transfers += 1


def _run_loop(engine: DimEngine, metrics: SystemMetrics, cfg,
              events, i: int, seen: Set[int],
              misspec_penalty: int) -> int:
    """Execute one loop-kind configuration; returns the next event index.

    The array iterates the whole block chain: every trip pays the
    dataflow depth plus the back-edge exit check, and only the first
    trip pays reconfiguration and the write-back drain (charged by the
    caller).  A back-edge resolving off the loop is a clean exit; an
    interior merged branch mismatching is an ordinary mis-speculation.
    Mirrored cycle-for-cycle by ``CoupledSimulator._execute_array`` and
    by the columnar loop template.
    """
    committed = 0
    j = i
    blocks = cfg.blocks
    back = len(blocks) - 1
    chk = cfg.loop_check_cycles
    looping = True
    while looping:
        for q, cfg_block in enumerate(blocks):
            cfg_blk = cfg_block.block
            seen.add(cfg_blk.start_pc)
            code = events[j]
            if code >> 1 != cfg_blk.block_id:  # pragma: no cover
                raise RuntimeError(
                    "trace/configuration divergence at event "
                    f"{j}: expected block {cfg_blk.block_id}, "
                    f"got {code >> 1}")
            committed += cfg_block.covered
            loads, stores = _prefix_mem_ops(cfg_blk, cfg_block.covered)
            metrics.loads += loads
            metrics.stores += stores
            term = cfg_blk.terminator
            committed += 1
            metrics.branches += 1
            j += 1
            if term.klass is InstrClass.BRANCH:
                actual = bool(code & 1)
                if actual:
                    metrics.taken_transfers += 1
                if q == back:
                    metrics.cycles += chk
                    if engine.loop_backedge(cfg, cfg_block, actual):
                        metrics.cycles += engine.loop_iteration(cfg)
                    else:
                        looping = False
                elif not engine.speculation_outcome(cfg, cfg_block,
                                                    actual):
                    metrics.cycles += misspec_penalty
                    looping = False
                    break
            else:  # unconditional j interior
                metrics.taken_transfers += 1
    metrics.instructions += committed
    engine.stats.array_instructions += committed
    return j


def _run_dual(engine: DimEngine, metrics: SystemMetrics, model,
              cfg, events, i: int, seen: Set[int],
              misspec_penalty: int) -> int:
    """Execute one dual-kind configuration; returns the next event index.

    The chain walks exactly like a linear configuration until the final
    (predicated) branch: its resolution squashes the losing path's
    gated write-backs at no penalty, commits the winning path's covered
    prefix from the array, and the winner's tail executes normally on
    the core (mid-block resume — no cache lookup, matching the coupled
    simulator).
    """
    committed = 0
    j = i
    blocks = cfg.blocks
    last = len(blocks) - 1
    for q, cfg_block in enumerate(blocks):
        cfg_blk = cfg_block.block
        seen.add(cfg_blk.start_pc)
        code = events[j]
        if code >> 1 != cfg_blk.block_id:  # pragma: no cover
            raise RuntimeError(
                "trace/configuration divergence at event "
                f"{j}: expected block {cfg_blk.block_id}, "
                f"got {code >> 1}")
        committed += cfg_block.covered
        loads, stores = _prefix_mem_ops(cfg_blk, cfg_block.covered)
        metrics.loads += loads
        metrics.stores += stores
        term = cfg_blk.terminator
        committed += 1
        metrics.branches += 1
        if q == last:
            actual = bool(code & 1)
            if actual:
                metrics.taken_transfers += 1
            j += 1
            winner = engine.dual_resolution(cfg, cfg_block, actual)
            wblk = winner.block
            seen.add(wblk.start_pc)
            succ_code = events[j]
            if succ_code >> 1 != wblk.block_id:  # pragma: no cover
                raise RuntimeError(
                    "trace/configuration divergence at event "
                    f"{j}: expected block {wblk.block_id}, "
                    f"got {succ_code >> 1}")
            committed += winner.covered
            loads, stores = _prefix_mem_ops(wblk, winner.covered)
            metrics.loads += loads
            metrics.stores += stores
            _account_normal(metrics, model, wblk, winner.covered,
                            succ_code & 1)
            if wblk.is_conditional:
                engine.observe_branch(wblk.branch_pc, bool(succ_code & 1))
            j += 1
        elif term.klass is InstrClass.BRANCH:
            actual = bool(code & 1)
            if actual:
                metrics.taken_transfers += 1
            j += 1
            if not engine.speculation_outcome(cfg, cfg_block, actual):
                metrics.cycles += misspec_penalty
                break
        else:  # unconditional j interior
            metrics.taken_transfers += 1
            j += 1
    metrics.instructions += committed
    engine.stats.array_instructions += committed
    return j


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
    model = shared_cost_model(config.timing)
    table = trace.table
    seen: Set[int] = set()

    def provider(pc: int) -> Optional[BasicBlock]:
        if pc not in seen:
            return None
        return table.get_by_pc(pc)

    engine = DimEngine(config.shape, config.dim, provider,
                       translation_memo=memo, telemetry=telemetry)
    metrics = SystemMetrics(name=name or config.name)
    events = trace.events
    n = len(events)
    i = 0
    while i < n:
        code = events[i]
        block = table.get(code >> 1)
        seen.add(block.start_pc)
        cfg = engine.lookup(block.start_pc)
        if cfg is None:
            _account_normal(metrics, model, block, 0, code & 1)
            if block.is_conditional:
                engine.observe_branch(block.branch_pc, bool(code & 1))
            if i < n - 1:
                engine.consider_translation(block)
            i += 1
            continue

        # ---- array execution --------------------------------------------
        cfg = engine.maybe_extend(cfg)
        metrics.cycles += engine.begin_execution(cfg)
        if cfg.kind == "loop":
            i = _run_loop(engine, metrics, cfg, events, i, seen,
                          config.dim.misspec_penalty)
            continue
        if cfg.kind == "dual":
            i = _run_dual(engine, metrics, model, cfg, events, i, seen,
                          config.dim.misspec_penalty)
            continue
        committed = 0
        j = i
        for cfg_block in cfg.blocks:
            cfg_blk = cfg_block.block
            seen.add(cfg_blk.start_pc)
            code = events[j]
            if code >> 1 != cfg_blk.block_id:  # pragma: no cover
                raise RuntimeError(
                    "trace/configuration divergence at event "
                    f"{j}: expected block {cfg_blk.block_id}, "
                    f"got {code >> 1}")
            committed += cfg_block.covered
            loads, stores = _prefix_mem_ops(cfg_blk, cfg_block.covered)
            metrics.loads += loads
            metrics.stores += stores
            if not cfg_block.includes_terminator:
                if cfg_block.covered == 0:
                    # nothing of this block ran on the array: reprocess
                    # the event with a fresh lookup (matches the coupled
                    # simulator resuming at a block start).
                    break
                _account_normal(metrics, model, cfg_blk,
                                cfg_block.covered, code & 1)
                if cfg_blk.is_conditional:
                    engine.observe_branch(cfg_blk.branch_pc, bool(code & 1))
                j += 1
                break
            term = cfg_blk.terminator
            committed += 1
            metrics.branches += 1
            if term.klass is InstrClass.BRANCH:
                actual = bool(code & 1)
                if actual:
                    metrics.taken_transfers += 1
                j += 1
                if not engine.speculation_outcome(cfg, cfg_block, actual):
                    metrics.cycles += config.dim.misspec_penalty
                    break
            else:  # unconditional j
                metrics.taken_transfers += 1
                j += 1
        metrics.instructions += committed
        engine.stats.array_instructions += committed
        i = j

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
