"""DIM building blocks: predictor, reconfiguration cache."""

import pytest
from hypothesis import given, strategies as st

from repro.cgra.allocation import AllocationResult
from repro.cgra.configuration import Configuration
from repro.cgra.shape import ArrayShape
from repro.dim import BimodalPredictor, ReconfigurationCache
from repro.dim.params import DimParams

SHAPE = ArrayShape(rows=4, alus_per_row=2, mults_per_row=1, ldsts_per_row=1)


def make_config(pc):
    result = AllocationResult(
        num_instructions=4, lines_used=2, exec_cycles=1,
        inputs=frozenset({1}), outputs=frozenset({2}), immediates=0,
        alu_ops=4, mult_ops=0, mem_ops=0, loads=0, stores=0)
    return Configuration(start_pc=pc, blocks=[], result=result, shape=SHAPE)


# --- predictor -------------------------------------------------------------

def test_predictor_starts_weak():
    predictor = BimodalPredictor(16)
    assert predictor.saturated_direction(0x400000) is None
    assert not predictor.predict(0x400000)  # initial=1: weakly not-taken


def test_predictor_saturates_after_repeats():
    predictor = BimodalPredictor(16)
    pc = 0x400010
    predictor.update(pc, True)
    assert predictor.saturated_direction(pc) is None
    predictor.update(pc, True)
    assert predictor.saturated_direction(pc) is True
    predictor.update(pc, True)   # stays saturated
    assert predictor.counter(pc) == BimodalPredictor.STRONG_TAKEN


def test_predictor_hysteresis():
    predictor = BimodalPredictor(16)
    pc = 0x400020
    for _ in range(3):
        predictor.update(pc, True)
    predictor.update(pc, False)  # one wrong outcome
    assert predictor.predict(pc) is True      # still predicts taken
    assert predictor.saturated_direction(pc) is None


def test_predictor_opposite_saturation():
    predictor = BimodalPredictor(16)
    pc = 0x400030
    for _ in range(3):
        predictor.update(pc, True)
    for _ in range(4):
        predictor.update(pc, False)
    assert predictor.saturated_direction(pc) is False


def test_predictor_aliasing_by_table_size():
    predictor = BimodalPredictor(4)  # indexes on (pc>>2) & 3
    predictor.update(0x400000, True)
    predictor.update(0x400000, True)
    # 0x400010 aliases to the same entry (distance 4 words)
    assert predictor.saturated_direction(0x400010) is True


def test_predictor_requires_power_of_two():
    with pytest.raises(ValueError):
        BimodalPredictor(100)


@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_predictor_counter_stays_in_range(outcomes):
    predictor = BimodalPredictor(8)
    for taken in outcomes:
        predictor.update(0x400000, taken)
        assert 0 <= predictor.counter(0x400000) <= 3
    assert predictor.updates == len(outcomes)


# --- reconfiguration cache ---------------------------------------------------

def test_cache_fifo_eviction_order():
    cache = ReconfigurationCache(2, "fifo")
    a, b, c = make_config(0x100), make_config(0x200), make_config(0x300)
    cache.insert(a)
    cache.insert(b)
    cache.insert(c)            # evicts a (oldest)
    assert cache.lookup(0x100) is None
    assert cache.lookup(0x200) is b
    assert cache.lookup(0x300) is c
    assert cache.evictions == 1


def test_cache_fifo_ignores_hits_for_eviction():
    cache = ReconfigurationCache(2, "fifo")
    a, b, c = make_config(0x100), make_config(0x200), make_config(0x300)
    cache.insert(a)
    cache.insert(b)
    cache.lookup(0x100)        # FIFO: hit must NOT protect a
    cache.insert(c)
    assert cache.peek(0x100) is None


def test_cache_lru_protects_hits():
    cache = ReconfigurationCache(2, "lru")
    a, b, c = make_config(0x100), make_config(0x200), make_config(0x300)
    cache.insert(a)
    cache.insert(b)
    cache.lookup(0x100)        # LRU: a becomes most recent
    cache.insert(c)            # evicts b
    assert cache.peek(0x100) is a
    assert cache.peek(0x200) is None


def test_cache_replace_in_place_keeps_position():
    cache = ReconfigurationCache(2, "fifo")
    a, b = make_config(0x100), make_config(0x200)
    cache.insert(a)
    cache.insert(b)
    a2 = make_config(0x100)
    cache.insert(a2)           # replacement, not insertion
    assert len(cache) == 2
    assert cache.insertions == 2
    assert a2.builds == 2
    cache.insert(make_config(0x300))  # still evicts 0x100 first (FIFO)
    assert cache.peek(0x100) is None


def test_cache_invalidate():
    cache = ReconfigurationCache(4)
    cache.insert(make_config(0x100))
    cache.invalidate(0x100)
    assert 0x100 not in cache
    assert cache.invalidations == 1
    cache.invalidate(0x999)    # no-op
    assert cache.invalidations == 1


def test_cache_stats():
    cache = ReconfigurationCache(4)
    cache.insert(make_config(0x100))
    cache.lookup(0x100)
    cache.lookup(0x200)
    assert cache.hits == 1
    assert cache.lookups == 2
    assert cache.hit_rate == 0.5


def test_cache_validation():
    with pytest.raises(ValueError):
        ReconfigurationCache(0)
    with pytest.raises(ValueError):
        ReconfigurationCache(4, "random")


@pytest.mark.parametrize("bad", [
    {"cache_slots": 0}, {"cache_slots": -16},
    {"predictor_entries": 0}, {"predictor_entries": -512},
    {"predictor_entries": 300}, {"predictor_entries": 3},
])
def test_dim_params_reject_what_no_engine_runs(bad):
    """An empty cache or a predictor that is not a power of two fails
    when the parameters are made, not later inside a replay."""
    with pytest.raises(ValueError):
        DimParams(**bad)


def test_dim_params_accept_the_smallest_runnable_values():
    params = DimParams(cache_slots=1, predictor_entries=1)
    assert (params.cache_slots, params.predictor_entries) == (1, 1)


@given(st.lists(st.integers(0, 15), min_size=1, max_size=200),
       st.integers(1, 8))
def test_cache_never_exceeds_capacity(pcs, slots):
    cache = ReconfigurationCache(slots)
    for pc in pcs:
        cache.insert(make_config(pc * 4))
        assert len(cache) <= slots
