"""The binary-translation algorithm (Section 4.2).

Translation starts at the first instruction after a branch (a dynamic
basic block start) and walks forward, placing each instruction into the
array through the :class:`~repro.cgra.allocation.Allocator`.  It stops at
an unsupported instruction or when the array saturates, covering a prefix
of the block.

With speculation enabled, a fully-covered block whose terminating branch
has a *saturated* bimodal counter is merged with its predicted successor:
the branch comparison itself is placed in the array and translation
continues into the next block, up to ``max_spec_depth`` conditional
levels; unconditional ``j`` terminators are followed for free (they
cannot mis-speculate).  Extension across a branch is all-or-nothing with
respect to array resources: if the speculated block's body does not fit,
the whole extension is rolled back — cramming a partial speculated block
into leftover rows would forfeit that block's own (larger) standalone
configuration.  An extension that stops at an *unsupported* instruction
is kept, since the standalone configuration could not have covered more
either.

The two dynamic control-flow modes extend this walk (see
``docs/toolchain.md`` §Dynamic control flow):

- **loop closure** (``DimParams.loop_enabled``) — when the saturated
  direction of a conditional terminator targets the configuration's own
  start PC, the chain is a loop body: instead of unrolling into the
  predicted successor, the back-edge branch is placed and the
  configuration is *closed* (``kind="loop"``).  Closure is bounded by
  ``loop_max_body_blocks`` and by ``loop_carry_regs`` (the live-in set
  must fit the rotating-register map that carries operands between
  trips).  The decision consumes no extra probes: it is a function of
  the already-probed direction and static PCs, which keeps the result
  memoizable.
- **dual-path merge** (``DimParams.dual_enabled``) — where the paper's
  walk stops because the counter is *not* saturated, both successors
  are probed and, if the branch plus both covered bodies fit
  (all-or-nothing per side, with the dependence view forked so neither
  path observes the other's writes), the configuration closes as
  ``kind="dual"`` with the terminator predicated rather than predicted.
"""

from __future__ import annotations

from typing import Callable, List, MutableSequence, Optional, Tuple

from repro.cgra.allocation import Allocator
from repro.cgra.configuration import ConfigBlock, Configuration
from repro.cgra.dataflow import Placement, dim_supported, placement_record
from repro.cgra.shape import ArrayShape
from repro.dim.params import DimParams
from repro.dim.predictor import BimodalPredictor
from repro.isa.opcodes import InstrClass
from repro.sim.trace import BasicBlock

#: successor lookup: start PC -> block, or None when not yet discovered.
BlockProvider = Callable[[int], Optional[BasicBlock]]

#: probe-log record kinds (see :mod:`repro.dim.memo`).  A translation's
#: outcome is a pure function of its first block, the array shape, the
#: policy knobs, and the answers the walk receives from the predictor
#: and the block provider; recording those answers makes the result
#: memoizable across engines.
PROBE_DIRECTION = 0
PROBE_SUCCESSOR = 1

#: one recorded query: (kind, pc, answer).
Probe = Tuple[int, int, object]


#: a block's placement records: the body's DIM-supported prefix, whether
#: that prefix is the whole body, and the conditional terminator's
#: record (None for any other terminator).
BlockRecords = Tuple[Tuple[Placement, ...], bool, Optional[Placement]]


def block_records(block: BasicBlock) -> BlockRecords:
    """The placement records of ``block`` (see :data:`BlockRecords`).

    Derived once per block and kept on it, so every translator that
    walks the block — any shape, any policy — shares them.
    """
    records = block.dim_records
    if records is None:
        body = block.instructions if block.terminator is None \
            else block.instructions[:-1]
        prefix = []
        for instr in body:
            if not dim_supported(instr):
                break
            prefix.append(placement_record(instr))
        term = placement_record(block.terminator) \
            if block.is_conditional else None
        records = (tuple(prefix), len(prefix) == len(body), term)
        # the block is frozen; this derived cache is its one late field
        object.__setattr__(block, "dim_records", records)
    return records


def _place_body(alloc: Allocator, block: BasicBlock) -> Tuple[int, str]:
    """Place a block body; returns (covered, stop_reason).

    ``stop_reason`` is 'full' (everything placed), 'unsupported' (an
    instruction DIM cannot translate) or 'resources' (the array is out
    of lines/units/immediates).
    """
    records, complete, _ = block_records(block)
    place = alloc.place
    covered = 0
    for record in records:
        if not place(record):
            return covered, "resources"
        covered += 1
    return covered, "full" if complete else "unsupported"


class Translator:
    """Builds array configurations from basic-block trees."""

    def __init__(self, shape: ArrayShape, params: DimParams,
                 predictor: BimodalPredictor,
                 block_provider: BlockProvider):
        self.shape = shape
        self.params = params
        self.predictor = predictor
        self.block_provider = block_provider

    def translate(self, first_block: BasicBlock,
                  probe_log: Optional[MutableSequence[Probe]] = None
                  ) -> Optional[Configuration]:
        """Translate the tree rooted at ``first_block``.

        Returns None when fewer than ``min_block_instructions`` would be
        covered (the paper does not cache configurations of three or
        fewer instructions).  When ``probe_log`` is given, every
        predictor/provider query and its answer is appended to it, which
        is what lets :class:`repro.dim.memo.TranslationMemo` revalidate
        and reuse the result.
        """
        params = self.params
        alloc = Allocator(self.shape)
        cfg_blocks: List[ConfigBlock] = []
        spec_depth = 0
        extendable = False  # True when a later attempt may merge deeper
        kind = "linear"
        dual_taken: Optional[ConfigBlock] = None
        dual_fallthrough: Optional[ConfigBlock] = None

        block = first_block
        covered, reason = _place_body(alloc, block)
        # Everything after the first block is speculative: its live-outs
        # are gated on branch resolution (see AllocationResult).
        alloc.mark_nonspec_boundary()

        while True:
            if reason != "full":
                cfg_blocks.append(ConfigBlock(block, covered, False))
                break
            term = block.terminator
            if term is None or term.mnemonic in ("jr", "jalr", "jal"):
                # syscall / indirect / call boundaries are never merged
                cfg_blocks.append(ConfigBlock(block, covered, False))
                break
            if not params.speculation \
                    or len(cfg_blocks) + 1 >= params.max_blocks:
                cfg_blocks.append(ConfigBlock(block, covered, False))
                break

            is_branch = term.klass is InstrClass.BRANCH
            if is_branch:
                if spec_depth >= params.max_spec_depth:
                    cfg_blocks.append(ConfigBlock(block, covered, False))
                    break
                direction = self.predictor.saturated_direction(
                    block.branch_pc)
                if probe_log is not None:
                    probe_log.append((PROBE_DIRECTION, block.branch_pc,
                                      direction))
                if direction is None:
                    # not biased enough for speculation; a dual-path
                    # merge covers exactly this case.
                    if params.dual_enabled:
                        sides = self._try_dual(alloc, cfg_blocks, block,
                                               covered, probe_log)
                        if sides is not None:
                            kind = "dual"
                            dual_taken, dual_fallthrough = sides
                            break
                    # retry on a later execution
                    cfg_blocks.append(ConfigBlock(block, covered, False))
                    extendable = True
                    break
                next_pc = block.taken_target() if direction \
                    else block.fallthrough_pc
                if params.loop_enabled \
                        and next_pc == first_block.start_pc \
                        and len(cfg_blocks) + 1 \
                        <= params.loop_max_body_blocks:
                    # saturated back-edge to our own start: close the
                    # chain into an iterating configuration instead of
                    # unrolling.  No extra probes: the decision is a
                    # function of the probed direction and static PCs.
                    snapshot = alloc.snapshot()
                    if alloc.place(block_records(block)[2]) \
                            and alloc.input_count <= params.loop_carry_regs:
                        cfg_blocks.append(
                            ConfigBlock(block, covered, True, direction))
                        kind = "loop"
                        break
                    # does not fit the loop bounds: fall back to the
                    # paper's unrolling merge below.
                    alloc.restore(snapshot)
            else:  # unconditional j
                direction = True
                next_pc = block.taken_target()

            next_block = self.block_provider(next_pc)
            if probe_log is not None:
                probe_log.append((PROBE_SUCCESSOR, next_pc, next_block))
            if next_block is None:
                cfg_blocks.append(ConfigBlock(block, covered, False))
                extendable = True
                break

            snapshot = alloc.snapshot()
            placed_term = not is_branch \
                or alloc.place(block_records(block)[2])
            if placed_term:
                next_covered, next_reason = _place_body(alloc, next_block)
            if not placed_term or next_reason == "resources":
                # all-or-nothing: give the successor its standalone config
                alloc.restore(snapshot)
                cfg_blocks.append(ConfigBlock(block, covered, False))
                break
            cfg_blocks.append(ConfigBlock(block, covered, True, direction))
            if is_branch:
                spec_depth += 1
            block = next_block
            covered, reason = next_covered, next_reason

        config = Configuration(
            start_pc=first_block.start_pc,
            blocks=cfg_blocks,
            result=alloc.finish(),
            shape=self.shape,
            extendable=extendable and params.speculation,
            kind=kind,
            dual_taken=dual_taken,
            dual_fallthrough=dual_fallthrough,
            gate_cycles=params.dual_gate_cycles if kind == "dual" else 0,
            loop_check_cycles=params.loop_exit_check_cycles
            if kind == "loop" else 0,
        )
        if config.covered_instructions < params.min_block_instructions:
            return None
        return config

    def _try_dual(self, alloc: Allocator,
                  cfg_blocks: List[ConfigBlock], block: BasicBlock,
                  covered: int,
                  probe_log: Optional[MutableSequence[Probe]]
                  ) -> Optional[Tuple[ConfigBlock, ConfigBlock]]:
        """Attempt a predicated dual-path merge at ``block``'s branch.

        Both successors are probed (in taken-then-fallthrough order, so
        the probe sequence stays deterministic) and both covered bodies
        must place with at least one instruction each and without
        running out of array resources; otherwise everything is rolled
        back and the caller keeps the paper's
        stop-at-unpredictable-branch behaviour.  On success the merged
        branch block is appended and the two side prefixes (taken,
        fallthrough) are returned.
        """
        taken_pc = block.taken_target()
        taken_block = self.block_provider(taken_pc)
        if probe_log is not None:
            probe_log.append((PROBE_SUCCESSOR, taken_pc, taken_block))
        if taken_block is None:
            return None
        ft_pc = block.fallthrough_pc
        ft_block = self.block_provider(ft_pc)
        if probe_log is not None:
            probe_log.append((PROBE_SUCCESSOR, ft_pc, ft_block))
        if ft_block is None:
            return None
        snapshot = alloc.snapshot()
        if not alloc.place(block_records(block)[2]):
            alloc.restore(snapshot)
            return None
        mark = alloc.fork_dataflow()
        taken_covered, taken_reason = _place_body(alloc, taken_block)
        if taken_reason == "resources" or taken_covered == 0:
            alloc.restore(snapshot)
            return None
        taken_view = alloc.rewind_dataflow(mark)
        ft_covered, ft_reason = _place_body(alloc, ft_block)
        if ft_reason == "resources" or ft_covered == 0:
            alloc.restore(snapshot)
            return None
        alloc.join_dataflow(taken_view)
        cfg_blocks.append(ConfigBlock(block, covered, True, None))
        return (ConfigBlock(taken_block, taken_covered, False),
                ConfigBlock(ft_block, ft_covered, False))
