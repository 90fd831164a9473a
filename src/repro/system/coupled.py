"""Bit-exact co-simulation of the MIPS core with DIM and the array.

The coupled simulator interleaves normal pipeline execution with array
execution.  Array-covered instructions run through the very same
:mod:`repro.isa.semantics` functions the core uses, with speculative
blocks committed only when their guarding branch resolves in the
predicted direction — so architectural state (registers, memory, program
output) is provably identical to a plain run, which the test suite
asserts.

It is the transparency oracle, not the single-run engine:
:func:`repro.api.run` replays the plain run's trace through
:func:`~repro.system.traceeval.evaluate_trace`, and
``tests/test_system_equivalence.py`` holds that replay to this
simulator's state and counters.  Production code runs it only where a
trace cannot reach: runs with caches configured (an array access's
data-cache timing depends on its address).

It always interprets, core and array alike (:meth:`_exec_functional`),
so like the interpreted core it tolerates a store into ``.text``, which
the block compiler refuses.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Optional, Set, Tuple

from repro.asm.program import Program
from repro.cgra.configuration import Configuration
from repro.dim.engine import DimEngine
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass
from repro.isa.semantics import alu_result, branch_taken, mult_result
from repro.sim.cpu import Simulator, _load, _store
from repro.sim.trace import BasicBlock
from repro.system.config import SystemConfig
from repro.system.metrics import CoupledRunResult, SystemMetrics


class CoupledSimulator:
    """MIPS core + DIM engine + reconfigurable array."""

    def __init__(self, program: Program, config: SystemConfig,
                 max_instructions: int = 200_000_000,
                 caches=None, telemetry=None):
        self.config = config
        self.sim = Simulator(program, timing=config.timing,
                             collect_trace=False,
                             max_instructions=max_instructions,
                             caches=caches, fast=False,
                             telemetry=telemetry)
        self._seen: Set[int] = set()
        self.engine = DimEngine(config.shape, config.dim,
                                self._block_provider,
                                telemetry=telemetry)

    def _block_provider(self, pc: int) -> Optional[BasicBlock]:
        """Successor lookup for the translator.

        Only blocks that have actually executed from their start are
        visible — the DIM hardware discovers code by watching the retired
        stream, never by probing instruction memory.
        """
        if pc not in self._seen:
            return None
        return self.sim.block_at(pc)

    # ------------------------------------------------------------------
    def run(self) -> CoupledRunResult:
        sim = self.sim
        engine = self.engine
        telemetry = sim.telemetry
        start = _perf_counter() if telemetry.enabled else 0.0
        at_start = True
        entered_at_start = True
        block_start = sim.pc
        while sim.exit_code is None:
            if at_start:
                self._seen.add(sim.pc)
                config = engine.lookup(sim.pc)
                if config is not None:
                    config = engine.maybe_extend(config)
                    at_start, block_start = self._execute_array(config)
                    entered_at_start = at_start
                    continue
            # Execute to the end of the (possibly partially resumed)
            # block in one call.
            outcome = sim.step_block()
            block = sim.block_at(block_start)
            if block.is_conditional:
                engine.observe_branch(block.branch_pc, outcome.taken)
            if entered_at_start and sim.exit_code is None:
                engine.consider_translation(block)
            at_start = True
            entered_at_start = True
            block_start = outcome.next_pc
        cache = engine.cache
        if telemetry.enabled:
            from repro.obs.schema import engine_counters

            # the same sim.* counters Simulator.run adds, for this run
            telemetry.add_time("sim.run_seconds", _perf_counter() - start)
            telemetry.count("sim.runs")
            telemetry.count("sim.instructions", sim.stats.instructions)
            telemetry.count("sim.cycles", sim.stats.cycles)
            telemetry.count_many(engine_counters(engine))
        metrics = SystemMetrics.from_stats(
            self.config.name, sim.stats, dim=engine.stats,
            cache_lookups=cache.lookups, cache_hits=cache.hits,
            cache_insertions=cache.insertions,
            cache_evictions=cache.evictions,
            cache_invalidations=cache.invalidations,
            predictor_accuracy=engine.predictor.accuracy)
        return CoupledRunResult(
            exit_code=sim.exit_code,
            output="".join(sim.output_parts),
            stats=sim.stats,
            registers=sim.regs,
            memory=sim.memory,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    def _execute_array(self, config: Configuration) -> Tuple[bool, int]:
        """Run one configuration; returns (resumed_at_block_start, pc).

        When the array covers only a prefix of the final block, the core
        resumes mid-block and the returned flag is False (no cache lookup
        happens mid-block).
        """
        sim = self.sim
        engine = self.engine
        stats = sim._stats  # adds only: see Simulator.stats
        params = self.config.dim
        stats.cycles += engine.begin_execution(config)
        if config.kind == "loop":
            return self._execute_loop(config)
        if config.kind == "dual":
            return self._execute_dual(config)
        committed = 0
        resume_at_start = True
        resume_pc = config.start_pc
        for cfg_block in config.blocks:
            block = cfg_block.block
            self._seen.add(block.start_pc)
            self._execute_covered(block, cfg_block.covered)
            committed += cfg_block.covered
            if not cfg_block.includes_terminator:
                # final block: the core resumes after the covered prefix
                engine.stats.full_commits += 1
                resume_pc = block.start_pc + 4 * cfg_block.covered
                resume_at_start = cfg_block.covered == 0
                break
            term = block.terminator
            committed += 1
            stats.branches += 1
            if term.klass is InstrClass.BRANCH:
                actual = branch_taken(term.mnemonic, sim.regs[term.rs],
                                      sim.regs[term.rt])
                if actual:
                    stats.taken_transfers += 1
                if not engine.speculation_outcome(config, cfg_block,
                                                  actual):
                    stats.cycles += params.misspec_penalty
                    resume_pc = term.branch_target(block.branch_pc) \
                        if actual else block.fallthrough_pc
                    resume_at_start = True
                    break
            else:  # unconditional j — always correct
                stats.taken_transfers += 1
        else:  # pragma: no cover - blocks always end with a non-terminator
            pass
        stats.instructions += committed
        engine.stats.array_instructions += committed
        if stats.instructions > sim.max_instructions:
            raise RuntimeError("instruction budget exceeded in array")
        sim.pc = resume_pc
        sim.reset_block_start(resume_pc if resume_at_start
                              else config.blocks[-1].block.start_pc)
        if resume_at_start:
            return True, resume_pc
        return False, config.blocks[-1].block.start_pc

    def _execute_loop(self, config: Configuration) -> Tuple[bool, int]:
        """Iterate a loop-kind configuration functionally.

        Mirrors ``traceeval._run_loop`` (priced by ``traceeval._fold``)
        cycle for cycle: each trip re-executes the whole chain, pays the
        back-edge exit check, and only a continuing back-edge pays the
        marginal trip cycles.
        """
        sim = self.sim
        engine = self.engine
        stats = sim._stats  # adds only: see Simulator.stats
        params = self.config.dim
        blocks = config.blocks
        back = len(blocks) - 1
        chk = config.loop_check_cycles
        committed = 0
        resume_pc = config.start_pc
        looping = True
        while looping:
            for q, cfg_block in enumerate(blocks):
                block = cfg_block.block
                self._seen.add(block.start_pc)
                self._execute_covered(block, cfg_block.covered)
                committed += cfg_block.covered
                term = block.terminator
                committed += 1
                stats.branches += 1
                if term.klass is InstrClass.BRANCH:
                    actual = branch_taken(term.mnemonic,
                                          sim.regs[term.rs],
                                          sim.regs[term.rt])
                    if actual:
                        stats.taken_transfers += 1
                    target = term.branch_target(block.branch_pc) \
                        if actual else block.fallthrough_pc
                    if q == back:
                        stats.cycles += chk
                        if engine.loop_backedge(config, cfg_block,
                                                actual):
                            stats.cycles += engine.loop_iteration(config)
                        else:
                            engine.stats.full_commits += 1
                            resume_pc = target
                            looping = False
                    elif not engine.speculation_outcome(config, cfg_block,
                                                        actual):
                        stats.cycles += params.misspec_penalty
                        resume_pc = target
                        looping = False
                        break
                else:  # unconditional j interior
                    stats.taken_transfers += 1
            if stats.instructions + committed > sim.max_instructions:
                raise RuntimeError("instruction budget exceeded in array")
        stats.instructions += committed
        engine.stats.array_instructions += committed
        sim.pc = resume_pc
        sim.reset_block_start(resume_pc)
        return True, resume_pc

    def _execute_dual(self, config: Configuration) -> Tuple[bool, int]:
        """Execute a dual-kind configuration functionally.

        Only the winning path's instructions touch architectural state
        (the loser's write-backs are gated off in hardware); the core
        resumes mid-block after the winner's covered prefix, exactly as
        ``traceeval._run_dual`` counts it.
        """
        sim = self.sim
        engine = self.engine
        stats = sim._stats  # adds only: see Simulator.stats
        params = self.config.dim
        blocks = config.blocks
        last = len(blocks) - 1
        committed = 0
        resume_pc = config.start_pc
        winner_block = None
        for q, cfg_block in enumerate(blocks):
            block = cfg_block.block
            self._seen.add(block.start_pc)
            self._execute_covered(block, cfg_block.covered)
            committed += cfg_block.covered
            term = block.terminator
            committed += 1
            stats.branches += 1
            if q == last:
                actual = branch_taken(term.mnemonic, sim.regs[term.rs],
                                      sim.regs[term.rt])
                if actual:
                    stats.taken_transfers += 1
                winner = engine.dual_resolution(config, cfg_block, actual)
                engine.stats.full_commits += 1
                wblk = winner.block
                self._seen.add(wblk.start_pc)
                self._execute_covered(wblk, winner.covered)
                committed += winner.covered
                resume_pc = wblk.start_pc + 4 * winner.covered
                winner_block = wblk
            elif term.klass is InstrClass.BRANCH:
                actual = branch_taken(term.mnemonic, sim.regs[term.rs],
                                      sim.regs[term.rt])
                if actual:
                    stats.taken_transfers += 1
                if not engine.speculation_outcome(config, cfg_block,
                                                  actual):
                    stats.cycles += params.misspec_penalty
                    resume_pc = term.branch_target(block.branch_pc) \
                        if actual else block.fallthrough_pc
                    break
            else:  # unconditional j interior
                stats.taken_transfers += 1
        stats.instructions += committed
        engine.stats.array_instructions += committed
        if stats.instructions > sim.max_instructions:
            raise RuntimeError("instruction budget exceeded in array")
        sim.pc = resume_pc
        if winner_block is None:
            # interior mis-speculation: resume at a block start
            sim.reset_block_start(resume_pc)
            return True, resume_pc
        # mid-block resume after the winning path's covered prefix
        sim.reset_block_start(winner_block.start_pc)
        return False, winner_block.start_pc

    def _array_memory_access(self, address: int) -> None:
        """Charge a data-cache access made by an array LD/ST unit.

        Section 4.3: array operations are scheduled assuming cache hits;
        "if a miss occurs, the whole array operation stops until the miss
        is resolved" — so a miss simply adds its penalty to the run.
        """
        dcache = self.sim.caches.dcache
        if dcache is not None and not dcache.access(address):
            self.sim.stats.dcache_misses += 1
            self.sim.stats.cycles += dcache.config.miss_penalty

    def _execute_covered(self, block: BasicBlock, covered: int) -> None:
        """Functionally execute ``block``'s array-covered prefix."""
        for instr in block.instructions[:covered]:
            self._exec_functional(instr)

    def _exec_functional(self, instr: Instruction) -> None:
        """Functionally execute one array-covered instruction."""
        sim = self.sim
        regs = sim.regs
        klass = instr.klass
        if klass is InstrClass.ALU or klass is InstrClass.SHIFT:
            dest = instr.destination()
            if dest is not None:
                b = instr.imm if instr.info.fmt.value == "I" \
                    else regs[instr.rt]
                regs[dest] = alu_result(instr, regs[instr.rs], b)
        elif klass is InstrClass.LOAD:
            sim.stats.loads += 1
            address = (regs[instr.rs] + instr.imm) & 0xFFFFFFFF
            self._array_memory_access(address)
            value = _load(sim.memory, instr.mnemonic, address)
            dest = instr.destination()
            if dest is not None:
                regs[dest] = value
        elif klass is InstrClass.STORE:
            sim.stats.stores += 1
            address = (regs[instr.rs] + instr.imm) & 0xFFFFFFFF
            self._array_memory_access(address)
            _store(sim.memory, instr.mnemonic, address, regs[instr.rt])
        elif klass is InstrClass.MULT:
            sim.hi, sim.lo = mult_result(instr.mnemonic, regs[instr.rs],
                                         regs[instr.rt])
        elif klass is InstrClass.HILO:
            mnemonic = instr.mnemonic
            if mnemonic == "mfhi":
                dest = instr.destination()
                if dest is not None:
                    regs[dest] = sim.hi
            elif mnemonic == "mflo":
                dest = instr.destination()
                if dest is not None:
                    regs[dest] = sim.lo
            elif mnemonic == "mthi":
                sim.hi = regs[instr.rs]
            else:
                sim.lo = regs[instr.rs]
        elif klass is InstrClass.NOP:
            pass
        else:  # pragma: no cover - translator never places these
            raise RuntimeError(f"unsupported array instruction {instr}")


def run_coupled(program: Program, config: SystemConfig,
                max_instructions: int = 200_000_000,
                caches=None, fast: bool = True,
                telemetry=None) -> CoupledRunResult:
    """One-shot convenience wrapper; ``fast`` is ignored (old callers)."""
    del fast
    return CoupledSimulator(program, config, max_instructions,
                            caches=caches, telemetry=telemetry).run()
