"""Static per-block cycle costs.

Because the core resets its interlock trackers at every control transfer
(see :mod:`repro.sim.cpu`), the cost of executing instructions
``start_idx..end`` of a basic block is a static function of the block and
the terminator outcome.  This module computes and caches those costs; it
is what lets the trace-driven evaluator agree cycle-exactly with the
coupled simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.isa.opcodes import InstrClass
from repro.sim.stats import TimingModel
from repro.sim.trace import BasicBlock


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
