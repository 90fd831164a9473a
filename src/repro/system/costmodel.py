"""Static costs: of a block run on the core, and of one array execution.

Because the core resets its interlock trackers at every control transfer
(see :mod:`repro.sim.cpu`), the cost of executing instructions
``start_idx..end`` of a basic block is a static function of the block and
the terminator outcome.  :class:`BlockCostModel` computes and caches
those costs; it is what lets the trace-driven evaluators agree
cycle-exactly with the coupled simulator.

One array execution is as static: its cost is a function of the
configuration and of the way the execution exits, its *exit code*.
Both trace replays (:mod:`repro.system.traceeval`, the event reference,
and :mod:`repro.system.colreplay`, the columnar engine) count
executions by (configuration, exit code) and price them here, with
:func:`fold_executions`; the coupled simulator accounts its own
executions one instruction at a time and is the independent check.

Costs are 12-field rows (the columns below): :func:`core_row` for a
whole block run on the core, :func:`exit_rows` for one execution of a
configuration per exit code, :func:`trip_row` for one extra loop trip.
Exit codes of a configuration of ``K`` blocks ``B0..B(K-1)``, by kind
(``m`` is the depth of the first interior merged branch whose outcome
differs from its ``expected_taken``: a mis-speculation consuming
``m+1`` events, plus ``K`` per extra trip of a loop):

=======  ===========================================  ==========
kind     all interior merged branches match           mismatch
=======  ===========================================  ==========
linear   0 — final block covers nothing: reprocess,   ``3+m``
         ``K-1`` events consumed;
         1 / 2 — final tail not taken / taken,
         ``K`` events consumed
loop     0 — clean back-edge exit after the last      ``1+m``
         trip, ``K`` events per trip
dual     0–3 — ``2*actual + successor taken``: the    ``4+m``
         predicated branch's direction and the
         winner block's own terminator outcome,
         ``K+1`` events consumed
=======  ===========================================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.isa.opcodes import InstrClass
from repro.sim.stats import TimingModel
from repro.sim.trace import BasicBlock

if TYPE_CHECKING:
    from repro.cgra.configuration import Configuration
    from repro.dim.engine import DimStats
    from repro.dim.params import DimParams

#: column indices of every cost row.  CYC excludes reconfiguration
#: stalls and mis-speculation penalties (:func:`fold_executions` adds
#: them); COM counts the instructions the array committed
#: (``DimStats.array_instructions``) and MIS the mis-speculations.
CYC, INS, FET, LDS, STS, BRA, TAK, LUS, HILO, SYS, COM, MIS = range(12)
NFIELDS = 12

#: first mis-speculation exit code, by configuration kind.
_MISS_BASE = {"linear": 3, "loop": 1, "dual": 4}


@dataclass(frozen=True)
class BlockCost:
    """Cycle and event counts for one (block, start index) range."""

    cycles_not_taken: int
    cycles_taken: int
    instructions: int
    fetches: int
    loads: int
    stores: int
    branches: int
    load_use_stalls: int
    hilo_stalls: int
    syscalls: int

    def cycles(self, taken: bool) -> int:
        return self.cycles_taken if taken else self.cycles_not_taken


class BlockCostModel:
    """Computes (and memoizes) static block execution costs.

    A cost is memoized on its block (``block.costs``, keyed by model and
    start index), so it is freed with the block: the model itself holds
    no block.
    """

    def __init__(self, timing: TimingModel):
        self.timing = timing

    def cost(self, block: BasicBlock, start_idx: int = 0) -> BlockCost:
        key = (self, start_idx)
        cached = block.costs.get(key)
        if cached is None:
            cached = self._compute(block, start_idx)
            block.costs[key] = cached
        return cached

    def _compute(self, block: BasicBlock,
                 start_idx: int) -> BlockCost:  # noqa: C901 - mirrors step()
        timing = self.timing
        cycles = 0
        loads = stores = branches = syscalls = 0
        load_use = hilo_stalls = 0
        last_load_dest = None
        hilo_ready = -10**9
        taken_extra = 0
        instrs = block.instructions
        count = len(instrs) - start_idx
        for idx in range(start_idx, len(instrs)):
            instr = instrs[idx]
            klass = instr.klass
            step = 1
            if last_load_dest is not None \
                    and last_load_dest in instr.sources():
                step += timing.load_use_stall
                load_use += 1
            last_load_dest = None
            if klass is InstrClass.LOAD:
                loads += 1
                if instr.destination() is not None:
                    last_load_dest = instr.destination()
            elif klass is InstrClass.STORE:
                stores += 1
            elif klass is InstrClass.BRANCH:
                branches += 1
                taken_extra = timing.branch_penalty
            elif klass is InstrClass.JUMP:
                branches += 1
                step += timing.branch_penalty
            elif klass is InstrClass.MULT:
                hilo_ready = cycles + step + timing.mult_latency
            elif klass is InstrClass.DIV:
                hilo_ready = cycles + step + timing.div_latency
            elif klass is InstrClass.HILO:
                if instr.mnemonic in ("mfhi", "mflo"):
                    wait = hilo_ready - (cycles + step)
                    if wait > 0:
                        step += wait
                        hilo_stalls += wait
            elif klass is InstrClass.SYSCALL:
                syscalls += 1
                step += timing.syscall_cycles - 1
            cycles += step
        return BlockCost(
            cycles_not_taken=cycles,
            cycles_taken=cycles + taken_extra,
            instructions=count,
            fetches=count,
            loads=loads,
            stores=stores,
            branches=branches,
            load_use_stalls=load_use,
            hilo_stalls=hilo_stalls,
            syscalls=syscalls,
        )


#: process-wide cost models, one per timing configuration.  Sharing one
#: model across every trace evaluation and block compilation means a
#: block's cost is computed exactly once per block, no matter how many
#: system configurations the sweep replays it under.  The costs live on
#: their blocks, so a freed trace takes its costs with it.
_SHARED_MODELS: Dict[TimingModel, BlockCostModel] = {}


def shared_cost_model(timing: TimingModel) -> BlockCostModel:
    """The process-wide :class:`BlockCostModel` for ``timing``."""
    model = _SHARED_MODELS.get(timing)
    if model is None:
        model = BlockCostModel(timing)
        _SHARED_MODELS[timing] = model
    return model


def _prefix_mem_ops(block: BasicBlock, covered: int) -> Tuple[int, int]:
    """(loads, stores) of the block's first ``covered`` instructions.

    Memoized on the block (``block.costs``, keyed by the bare prefix
    length) and shared across the whole sweep: replaying one block table
    under all 18 paper systems hits the memo 17 times out of 18, and the
    entries are freed with the block.
    """
    ops = block.costs.get(covered)
    if ops is None:
        loads = stores = 0
        for instr in block.instructions[:covered]:
            if instr.klass is InstrClass.LOAD:
                loads += 1
            elif instr.klass is InstrClass.STORE:
                stores += 1
        ops = block.costs[covered] = (loads, stores)
    return ops


def _add_core(row: List[int], cost: BlockCost, block: BasicBlock,
              taken: bool) -> List[int]:
    """Add the core ``cost`` of ``block``'s tail, leaving ``taken`` or
    not, to ``row``, whose COM column already counts the instructions
    the array committed ahead of the tail; returns ``row``."""
    row[CYC] += cost.cycles(taken)
    row[INS] = row[COM] + cost.instructions
    row[FET] += cost.fetches
    row[LDS] += cost.loads
    row[STS] += cost.stores
    row[BRA] += cost.branches
    row[LUS] += cost.load_use_stalls
    row[HILO] += cost.hilo_stalls
    row[SYS] += cost.syscalls
    terminator = block.terminator
    if terminator is not None and (
            terminator.klass is InstrClass.JUMP or taken):
        row[TAK] += 1
    return row


def core_row(model: BlockCostModel, block: BasicBlock,
             taken: bool) -> List[int]:
    """The row of one whole ``block`` run on the core."""
    return _add_core([0] * NFIELDS, model.cost(block, 0), block, taken)


def add_row(totals: List[int], row: Sequence[int], count: int) -> None:
    """Add ``count`` times ``row`` to ``totals``."""
    for field, value in enumerate(row):
        if value:
            totals[field] += value * count


def exit_code_count(config: "Configuration") -> int:
    """How many exit codes ``config`` has (see the module table)."""
    return _MISS_BASE[config.kind] + len(config.blocks) - 1


def _chain(config: "Configuration") -> Tuple[List[List[int]], List[int]]:
    """(rows, run) of the merged-chain walk every kind starts with.

    ``rows`` has one row per exit code, of which only the
    mis-speculation rows (the kind's base plus the depth ``q`` of a
    merged branch) are filled; ``run`` is the running total after the
    final block's covered prefix, before its terminator.
    """
    rows = [[0] * NFIELDS for _ in range(exit_code_count(config))]
    run = [0] * NFIELDS
    run[CYC] = config.exec_cycles
    mis_base = _MISS_BASE[config.kind]
    last = len(config.blocks) - 1
    for q, cfg_block in enumerate(config.blocks):
        block = cfg_block.block
        loads, stores = _prefix_mem_ops(block, cfg_block.covered)
        run[COM] += cfg_block.covered
        run[LDS] += loads
        run[STS] += stores
        if q == last:
            break
        if block.is_conditional:
            # this merged branch mis-speculated: its terminator still
            # committed and the actual direction is the opposite of the
            # expected one.
            mis = list(run)
            mis[COM] += 1
            mis[BRA] += 1
            if not cfg_block.expected_taken:
                mis[TAK] += 1
            mis[MIS] = 1
            mis[INS] = mis[COM]
            rows[mis_base + q] = mis
        # matched merged terminator: committed + branch, transfer taken
        # for jumps and taken-expected branches.
        run[COM] += 1
        run[BRA] += 1
        if not block.is_conditional or cfg_block.expected_taken:
            run[TAK] += 1
    return rows, run


def exit_rows(config: "Configuration",
              model: BlockCostModel) -> List[List[int]]:
    """The row of one execution of ``config``, per exit code.

    A loop's rows are its first trip's; :func:`trip_row` prices each
    extra trip on top.
    """
    rows, run = _chain(config)
    blocks = config.blocks
    if config.kind == "loop":
        # a clean exit pays the back-edge exit check and transfers in
        # the non-looping direction; an interior mis-speculation
        # reached no back-edge, so it pays no check.
        run[CYC] += config.loop_check_cycles
        run[COM] += 1
        run[BRA] += 1
        if not blocks[-1].expected_taken:
            run[TAK] += 1
        run[INS] = run[COM]
        rows[0] = run
    elif config.kind == "dual":
        # the predicated terminator always commits; each resolution adds
        # the winning side's covered prefix from the array and the
        # winner block's tail on the core.
        run[COM] += 1
        run[BRA] += 1
        for actual, side in ((0, config.dual_fallthrough),
                             (1, config.dual_taken)):
            block = side.block
            loads, stores = _prefix_mem_ops(block, side.covered)
            cost = model.cost(block, side.covered)
            for taken in (0, 1):
                row = list(run)
                row[TAK] += actual
                row[COM] += side.covered
                row[LDS] += loads
                row[STS] += stores
                rows[2 * actual + taken] = _add_core(row, cost, block,
                                                     taken == 1)
    else:
        last = blocks[-1]
        if last.covered == 0:
            run[INS] = run[COM]
            rows[0] = run
        else:
            cost = model.cost(last.block, last.covered)
            rows[1] = _add_core(list(run), cost, last.block, False)
            rows[2] = _add_core(run, cost, last.block, True)
    return rows


def trip_row(config: "Configuration") -> List[int]:
    """The row of one extra trip of loop ``config``.

    A continuation re-executes the whole chain, all terminators
    included, pays the marginal trip cycles plus the exit check, and
    its back-edge transfers in the looping direction.
    """
    row = [0] * NFIELDS
    row[CYC] = config.trip_cycles + config.loop_check_cycles
    last = len(config.blocks) - 1
    for q, cfg_block in enumerate(config.blocks):
        block = cfg_block.block
        loads, stores = _prefix_mem_ops(block, cfg_block.covered)
        row[COM] += cfg_block.covered + 1
        row[LDS] += loads
        row[STS] += stores
        row[BRA] += 1
        if q == last:
            if cfg_block.expected_taken:
                row[TAK] += 1
        elif not block.is_conditional or cfg_block.expected_taken:
            row[TAK] += 1
    row[INS] = row[COM]
    return row


def fold_executions(totals: List[int], stats: "DimStats",
                    config: "Configuration", hist: Sequence[int],
                    rows: Sequence[Sequence[int]],
                    params: "DimParams") -> None:
    """Price counted executions of ``config`` into ``totals`` and the
    array fields of ``stats``.

    ``hist`` holds one count per exit code, then the extra loop trips;
    ``rows`` is :func:`exit_rows` of ``config``.  Adds ``hist × rows +
    extra trips × trip row``, each execution's reconfiguration stall
    and each mis-speculation's penalty.  Ops and array busy time scale
    with trips, stalls with executions only; every execution that did
    not exit on a mis-speculation is a full commit.  The decision
    counters (mis-speculations, squashed dual instructions) are the
    caller's.
    """
    sums = [0] * NFIELDS
    executions = 0
    extra = hist[-1]
    for count, row in zip(hist, rows):
        if count:
            executions += count
            add_row(sums, row, count)
    if not executions:
        return
    if extra:
        add_row(sums, trip_row(config), extra)
    stall = max(0, config.reconfiguration_cycles - params.reconfig_overlap)
    sums[CYC] += stall * executions + params.misspec_penalty * sums[MIS]
    for field, value in enumerate(sums):
        totals[field] += value
    runs = executions + extra
    result = config.result
    busy = config.exec_cycles * executions + config.trip_cycles * extra
    stats.array_executions += executions
    stats.full_commits += executions - sums[MIS]
    stats.array_instructions += sums[COM]
    stats.array_alu_ops += result.alu_ops * runs
    stats.array_mult_ops += result.mult_ops * runs
    stats.array_mem_ops += result.mem_ops * runs
    stats.array_cycles += busy
    stats.array_line_cycles += result.lines_used * busy
    stats.array_potential_line_cycles += \
        min(config.shape.rows, 1 << 20) * busy
    stats.reconfiguration_stalls += stall * executions
    if config.kind == "loop":
        stats.loop_executions += executions
        stats.loop_trips += runs
    elif config.kind == "dual":
        stats.dual_executions += executions
