"""The DIM engine's run-time policies in isolation."""

import pytest

from repro.asm import assemble
from repro.cgra.shape import ArrayShape
from repro.dim import DimEngine, DimParams
from repro.sim import Simulator

SHAPE = ArrayShape(rows=32, alus_per_row=4, mults_per_row=1,
                   ldsts_per_row=2, immediate_slots=64)

LOOP = """
top:
    addiu $t0, $t0, 1
    addiu $t1, $t1, 2
    addu $t2, $t0, $t1
    sll $t3, $t2, 2
    bne $t0, $t4, top
"""


def make_engine(source=LOOP, **params):
    sim = Simulator(assemble(source))
    engine = DimEngine(SHAPE, DimParams(**params), sim.block_at)
    return sim, engine


def test_translate_on_first_sight():
    sim, engine = make_engine(cache_slots=8)
    block = sim.block_at(sim.pc)
    assert engine.lookup(block.start_pc) is None
    engine.consider_translation(block)
    assert engine.lookup(block.start_pc) is not None
    assert engine.stats.translations == 1


def test_consider_translation_is_idempotent():
    sim, engine = make_engine(cache_slots=8)
    block = sim.block_at(sim.pc)
    engine.consider_translation(block)
    engine.consider_translation(block)
    assert engine.stats.translations == 1
    assert engine.cache.insertions == 1


def test_extension_on_hit_after_saturation():
    sim, engine = make_engine(cache_slots=8, speculation=True)
    block = sim.block_at(sim.pc)
    engine.consider_translation(block)
    config = engine.lookup(block.start_pc)
    assert len(config.blocks) == 1 and config.extendable
    config2 = engine.maybe_extend(config)
    assert config2 is config  # counter not saturated, nothing happens
    engine.observe_branch(block.branch_pc, True)
    engine.observe_branch(block.branch_pc, True)
    config3 = engine.maybe_extend(config)
    assert config3 is not config
    assert len(config3.blocks) > 1
    assert engine.stats.extensions == 1
    # the cache now serves the extended configuration
    assert engine.lookup(block.start_pc) is config3


def test_flush_on_consecutive_misspeculation():
    sim, engine = make_engine(cache_slots=8, speculation=True,
                              misspec_flush_threshold=2)
    block = sim.block_at(sim.pc)
    for _ in range(3):
        engine.observe_branch(block.branch_pc, True)
    engine.consider_translation(block)
    config = engine.lookup(block.start_pc)
    cfg_block = config.blocks[0]
    assert cfg_block.includes_terminator
    # one wrong direction: penalised but kept
    assert not engine.speculation_outcome(config, cfg_block, False)
    assert block.start_pc in engine.cache
    # a correct direction resets the streak
    assert engine.speculation_outcome(config, cfg_block, True)
    assert config.misspec_count == 0
    # two consecutive wrong directions: drives counter to opposite
    # saturation -> flush
    engine.speculation_outcome(config, cfg_block, False)
    engine.speculation_outcome(config, cfg_block, False)
    assert block.start_pc not in engine.cache
    assert engine.stats.flushes >= 1


def test_occasional_loop_exit_never_flushes():
    sim, engine = make_engine(cache_slots=8, speculation=True)
    block = sim.block_at(sim.pc)
    for _ in range(3):
        engine.observe_branch(block.branch_pc, True)
    engine.consider_translation(block)
    config = engine.lookup(block.start_pc)
    cfg_block = config.blocks[0]
    for _ in range(50):  # 9 taken, 1 not-taken, repeatedly
        for _ in range(9):
            engine.speculation_outcome(config, cfg_block, True)
        engine.speculation_outcome(config, cfg_block, False)
    assert engine.stats.flushes == 0
    assert block.start_pc in engine.cache


def test_begin_execution_accounts_stats_and_stall():
    sim, engine = make_engine(cache_slots=8)
    block = sim.block_at(sim.pc)
    engine.consider_translation(block)
    config = engine.lookup(block.start_pc)
    core = engine.begin_execution(config)
    stall = max(0, config.reconfiguration_cycles - 3)
    assert core == stall + config.exec_cycles
    assert engine.stats.reconfiguration_stalls == stall
    stats = engine.stats
    assert stats.array_executions == 1
    assert stats.array_cycles == config.exec_cycles
    assert stats.array_alu_ops == config.result.alu_ops


def test_min_block_length_respected():
    sim, engine = make_engine("""
    top:
        addiu $t0, $t0, 1
        bne $t0, $t4, top
    """, cache_slots=8, min_block_instructions=4)
    block = sim.block_at(sim.pc)
    engine.consider_translation(block)
    assert engine.lookup(block.start_pc) is None
