"""The online DIM state machine.

This class carries everything the DIM hardware owns — predictor,
reconfiguration cache, translator — and implements the run-time policies:
translate a block the first time it retires, serve later executions from
the cache, extend a cached configuration when its terminating branch
saturates the bimodal counter, and flush a configuration after repeated
mis-speculation.  Both the bit-exact coupled simulator and the
trace-driven evaluator drive this same object, which is what keeps them
in cycle-exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cgra.configuration import ConfigBlock, Configuration
from repro.cgra.shape import ArrayShape
from repro.dim.params import DimParams
from repro.dim.predictor import BimodalPredictor
from repro.dim.rcache import ReconfigurationCache
from repro.dim.translator import BlockProvider, Translator

if TYPE_CHECKING:
    from repro.dim.memo import TranslationMemo
from repro.isa.opcodes import InstrClass
from repro.obs import NULL_TELEMETRY
from repro.sim.trace import BasicBlock


@dataclass
class DimStats:
    """Activity counters for the DIM hardware."""

    translations: int = 0
    translated_instructions: int = 0
    extensions: int = 0
    flushes: int = 0
    array_executions: int = 0
    array_instructions: int = 0
    array_alu_ops: int = 0
    array_mult_ops: int = 0
    array_mem_ops: int = 0
    misspeculations: int = 0
    full_commits: int = 0
    reconfiguration_stalls: int = 0
    #: total cycles the array spent executing (for the energy model).
    array_cycles: int = 0
    #: line-cycles actually occupied (for the FU-gating energy study).
    array_line_cycles: int = 0
    #: line-cycles if every line is always powered (no gating).
    array_potential_line_cycles: int = 0
    #: configurations written into the reconfiguration cache.
    config_writes: int = 0
    # ---- dynamic control flow (dynflow.* in the obs schema) ----------
    #: executions of loop-kind configurations.
    loop_executions: int = 0
    #: loop trips started (first trips plus back-edge continuations).
    loop_trips: int = 0
    #: loop-kind configurations written into the cache.
    loop_configs: int = 0
    #: loop configurations retired because the back-edge counter
    #: saturated in the exit direction (the loop phase ended).
    loop_retired: int = 0
    #: executions of dual-kind configurations.
    dual_executions: int = 0
    #: dual-kind configurations written into the cache.
    dual_configs: int = 0
    #: instructions of the losing predicated path, squashed per
    #: execution (priced as array ops but never committed).
    dual_squashed_instructions: int = 0
    #: dual configurations retired because their branch saturated (a
    #: deeper speculative configuration can now take over).
    dual_retired: int = 0


class DimEngine:
    """Predictor + cache + translator with the paper's run-time policies."""

    def __init__(self, shape: ArrayShape, params: DimParams,
                 block_provider: BlockProvider,
                 translation_memo: Optional["TranslationMemo"] = None,
                 telemetry=None):
        self.shape = shape
        self.params = params
        #: telemetry sink shared with the cache and predictor; the
        #: default null sink keeps every hot path uninstrumented.
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.predictor = BimodalPredictor(params.predictor_entries,
                                          telemetry=self.telemetry)
        self.cache = ReconfigurationCache(params.cache_slots,
                                          params.cache_policy,
                                          telemetry=self.telemetry)
        self.translator = Translator(shape, params, self.predictor,
                                     block_provider)
        #: optional cross-engine translation cache (see repro.dim.memo);
        #: results are identical with or without it.
        self.translation_memo = translation_memo
        self.stats = DimStats()

    def _translate(self, block: BasicBlock) -> Optional[Configuration]:
        memo = self.translation_memo
        if memo is None:
            return self.translator.translate(block)
        return memo.translate(self.translator, block)

    # ------------------------------------------------------------------
    # Block-start path.
    # ------------------------------------------------------------------
    def lookup(self, pc: int) -> Optional[Configuration]:
        """Cache lookup performed at every block start."""
        return self.cache.lookup(pc)

    def maybe_extend(self, config: Configuration) -> Configuration:
        """Try to deepen a configuration before executing it.

        Called on every cache hit; re-translates only when the last
        block's terminator has become predictable since the build.
        Returns the configuration to execute (the new one if replaced).
        """
        if not config.extendable:
            return config
        last = config.blocks[-1]
        term = last.block.terminator
        if term is None:
            config.extendable = False
            return config
        if term.klass is InstrClass.BRANCH:
            if self.predictor.saturated_direction(last.block.branch_pc) \
                    is None:
                return config
        tel = self.telemetry
        if tel.enabled:
            tel.emit("translation.started",
                     pc=config.blocks[0].block.start_pc, reason="extend")
        new = self._translate(config.blocks[0].block)
        self.stats.translations += 1
        if new is not None \
                and new.covered_instructions > config.covered_instructions:
            self.stats.extensions += 1
            self.stats.translated_instructions += new.covered_instructions
            self._record_config_write(new)
            if tel.enabled:
                tel.emit("speculation.extension", pc=new.start_pc,
                         covered=new.covered_instructions,
                         blocks=len(new.blocks))
                tel.emit("translation.committed", pc=new.start_pc,
                         covered=new.covered_instructions,
                         blocks=len(new.blocks))
            self.cache.insert(new)
            return new
        # nothing gained; remember whether a later attempt could help
        config.extendable = bool(new is not None and new.extendable)
        return config

    # ------------------------------------------------------------------
    # Normal-execution path.
    # ------------------------------------------------------------------
    def observe_branch(self, branch_pc: int, taken: bool) -> None:
        """Train the predictor with a branch executed by the processor."""
        self.predictor.update(branch_pc, taken)

    def consider_translation(self, block: BasicBlock) -> None:
        """Translate a block that just executed normally from its start."""
        if self.cache.peek(block.start_pc) is not None:
            return
        tel = self.telemetry
        if tel.enabled:
            tel.emit("translation.started", pc=block.start_pc,
                     reason="retire")
        config = self._translate(block)
        self.stats.translations += 1
        if config is not None:
            self.stats.translated_instructions += \
                config.covered_instructions
            self._record_config_write(config)
            if tel.enabled:
                tel.emit("translation.committed", pc=config.start_pc,
                         covered=config.covered_instructions,
                         blocks=len(config.blocks))
            self.cache.insert(config)

    def _record_config_write(self, config: Configuration) -> None:
        """Count one cache write, split by configuration kind."""
        stats = self.stats
        stats.config_writes += 1
        kind = config.kind
        if kind == "loop":
            stats.loop_configs += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "dynflow.loop_committed", pc=config.start_pc,
                    blocks=len(config.blocks),
                    covered=config.covered_instructions)
        elif kind == "dual":
            stats.dual_configs += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "dynflow.dual_committed", pc=config.start_pc,
                    taken_covered=config.dual_taken.covered,
                    fallthrough_covered=config.dual_fallthrough.covered)

    # ------------------------------------------------------------------
    # Array-execution bookkeeping, one execution at a time: the coupled
    # simulator's.  The trace replays count executions by exit code and
    # price them with repro.system.costmodel.fold_executions instead.
    # ------------------------------------------------------------------
    def begin_execution(self, config: Configuration) -> int:
        """Account one array execution; returns the core cycles it
        takes: the reconfiguration stall plus the execution itself."""
        stats = self.stats
        stall = max(0, config.reconfiguration_cycles
                    - self.params.reconfig_overlap)
        stats.array_executions += 1
        stats.reconfiguration_stalls += stall
        kind = config.kind
        if kind == "loop":
            stats.loop_executions += 1
        elif kind == "dual":
            stats.dual_executions += 1
        return stall + self._account_run(config, config.exec_cycles)

    def loop_iteration(self, config: Configuration) -> int:
        """Account one additional loop trip; returns its array cycles.

        A continuation trip re-executes every placed operation but pays
        neither the reconfiguration fetch nor the speculative write-back
        drain (carried operands stay routed inside the array).  The
        per-trip exit check is charged by the caller, on top.
        """
        return self._account_run(config, config.trip_cycles)

    def _account_run(self, config: Configuration, cycles: int) -> int:
        """Account one pass of ``config``'s operations through the
        array (an execution's first trip or a loop's extra one) taking
        ``cycles``; returns ``cycles``."""
        stats = self.stats
        result = config.result
        stats.array_alu_ops += result.alu_ops
        stats.array_mult_ops += result.mult_ops
        stats.array_mem_ops += result.mem_ops
        stats.array_cycles += cycles
        stats.array_line_cycles += result.lines_used * cycles
        stats.array_potential_line_cycles += \
            min(self.shape.rows, 1 << 20) * cycles
        if config.kind == "loop":
            stats.loop_trips += 1
        return cycles

    def loop_backedge(self, config: Configuration,
                      cfg_block: ConfigBlock, actual: bool) -> bool:
        """Resolve one iterating back-edge; True when the loop continues.

        The back-edge check is architecturally non-speculative — every
        trip resolves it before the next iteration commits — so an exit
        is *not* a mis-speculation: no penalty, no flush pressure, and
        the mis-speculation counter resets either way.  When the
        counter has saturated in the exit direction the loop phase is
        over and the configuration is retired so a later translation
        can rebuild for the new behaviour.
        """
        self.predictor.update(cfg_block.block.branch_pc, actual)
        config.misspec_count = 0
        if actual == cfg_block.expected_taken:
            return True
        if self.predictor.saturated_direction(cfg_block.block.branch_pc) \
                == (not cfg_block.expected_taken):
            self.cache.invalidate(config.start_pc)
            self.stats.loop_retired += 1
            if self.telemetry.enabled:
                self.telemetry.emit("translation.evicted",
                                    pc=config.start_pc,
                                    reason="loop_retired")
        return False

    def dual_resolution(self, config: Configuration,
                        cfg_block: ConfigBlock, actual: bool
                        ) -> ConfigBlock:
        """Resolve a predicated branch; returns the committed side.

        The losing path's operations were executed (and priced) by the
        array but their write-backs are gated off — predication cost,
        not a mis-speculation.  Once the branch saturates, the dual
        configuration is retired: a speculative rebuild can now merge
        deeper along the now-predictable direction.
        """
        self.predictor.update(cfg_block.block.branch_pc, actual)
        config.misspec_count = 0
        winner = config.dual_taken if actual else config.dual_fallthrough
        loser = config.dual_fallthrough if actual else config.dual_taken
        self.stats.dual_squashed_instructions += loser.covered
        if self.predictor.saturated_direction(cfg_block.block.branch_pc) \
                is not None:
            self.cache.invalidate(config.start_pc)
            self.stats.dual_retired += 1
            if self.telemetry.enabled:
                self.telemetry.emit("translation.evicted",
                                    pc=config.start_pc,
                                    reason="dual_retired")
        return winner

    def speculation_outcome(self, config: Configuration,
                            cfg_block: ConfigBlock, actual: bool) -> bool:
        """Resolve one speculated terminator; returns True on a match.

        Trains the predictor and counts mis-speculations.  Per the paper,
        a configuration is flushed when its branch "achiev[es] the
        opposite value of the respective counter" — i.e. the program's
        behaviour genuinely changed phase — or after
        ``misspec_flush_threshold`` *consecutive* wrong directions.  An
        occasional wrong exit (a loop ending) costs only the
        mis-speculation penalty and never evicts the configuration.
        """
        is_cond = cfg_block.block.is_conditional
        if is_cond:
            self.predictor.update(cfg_block.block.branch_pc, actual)
        if actual == cfg_block.expected_taken:
            config.misspec_count = 0
            return True
        self.stats.misspeculations += 1
        config.misspec_count += 1
        opposite = is_cond and self.predictor.saturated_direction(
            cfg_block.block.branch_pc) == (not cfg_block.expected_taken)
        if opposite \
                or config.misspec_count >= \
                self.params.misspec_flush_threshold:
            self.cache.invalidate(config.start_pc)
            self.stats.flushes += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "predictor.flush", pc=config.start_pc,
                    branch_pc=cfg_block.block.branch_pc if is_cond else 0,
                    reason="opposite" if opposite else "consecutive")
                self.telemetry.emit("translation.evicted",
                                    pc=config.start_pc, reason="flush")
        return False
