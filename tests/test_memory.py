"""Sparse paged memory."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.sim import memory as memory_module
from repro.sim.memory import AlignmentError_, Memory

addr32 = st.integers(0, 0xFFFF_FFF0)


def test_uninitialised_memory_reads_zero():
    mem = Memory()
    assert mem.read_word(0x10010000) == 0
    assert mem.read_byte(0x7FFFEFFC) == 0


def test_little_endian_word_bytes():
    mem = Memory()
    mem.write_word(0x1000, 0x11223344)
    assert mem.read_byte(0x1000) == 0x44
    assert mem.read_byte(0x1003) == 0x11
    assert mem.read_half(0x1000) == 0x3344
    assert mem.read_half(0x1002) == 0x1122


def test_alignment_enforced():
    mem = Memory()
    with pytest.raises(AlignmentError_):
        mem.read_word(0x1002)
    with pytest.raises(AlignmentError_):
        mem.write_word(0x1001, 0)
    with pytest.raises(AlignmentError_):
        mem.read_half(0x1001)
    with pytest.raises(AlignmentError_):
        mem.write_half(0x1003, 0)


def test_cross_page_block_write():
    mem = Memory()
    base = 0x1FFC  # spans the 4 KiB page boundary at 0x2000
    mem.write_block(base, bytes(range(8)))
    assert mem.read_block(base, 8) == bytes(range(8))
    assert mem.read_word(0x2000) == int.from_bytes(bytes([4, 5, 6, 7]),
                                                   "little")


def _bytewise(address, payload):
    mem = Memory()
    for i, byte in enumerate(payload):
        mem.write_byte(address + i, byte)
    return mem


@pytest.mark.parametrize("address, payload", [
    (0x1FFD, bytes(range(1, 11))),        # straddles the page at 0x2000
    (0x0FF0, bytes(range(256)) * 20),     # spans three pages
    (0x2000, b""),                        # zero length: touches nothing
    (0x3000, bytes(4096)),                # exactly one page of zeros
])
def test_block_write_matches_byte_writes(address, payload):
    mem = Memory()
    mem.write_block(address, payload)
    reference = _bytewise(address, payload)
    assert mem.snapshot_pages() == reference.snapshot_pages()
    assert mem.words.keys() == reference.words.keys()
    assert mem.read_block(address, len(payload)) == payload


def test_cstring_read():
    mem = Memory()
    mem.write_block(0x3000, b"hello\x00world")
    assert mem.read_cstring(0x3000) == "hello"
    assert mem.read_cstring(0x3000, limit=3) == "hel"


def test_snapshot_pages_is_copy():
    mem = Memory()
    mem.write_word(0x1000, 1)
    snap = mem.snapshot_pages()
    mem.write_word(0x1000, 2)
    assert snap != mem.snapshot_pages()


@pytest.mark.skipif(not memory_module.WORD_VIEWS,
                    reason="word views exist on little-endian hosts only")
@given(st.builds(lambda a: a & ~3, addr32), st.integers(0, 0xFFFFFFFF))
def test_word_view_agrees_with_word_calls(address, value):
    mem = Memory()
    mem.write_word(address, value)
    view = mem.words[address >> 12]
    assert view[(address & 0xFFF) >> 2] == value
    view[(address & 0xFFF) >> 2] = value ^ 0xFFFFFFFF
    assert mem.read_word(address) == value ^ 0xFFFFFFFF


def test_pickle_rebuilds_word_views():
    """Runs cross process pools: the views must not ride along."""
    mem = Memory()
    mem.write_word(0x1000, 0xDEADBEEF)
    copy = pickle.loads(pickle.dumps(mem))
    assert copy.snapshot_pages() == mem.snapshot_pages()
    assert copy.words.keys() == mem.words.keys()
    copy.write_word(0x1000, 7)
    assert mem.read_word(0x1000) == 0xDEADBEEF
    if memory_module.WORD_VIEWS:
        assert copy.words[1][0] == 7


def test_words_stay_empty_without_word_views(monkeypatch):
    monkeypatch.setattr(memory_module, "WORD_VIEWS", False)
    mem = Memory()
    mem.write_word(0x1000, 5)
    assert mem.words == {}
    assert mem.read_word(0x1000) == 5


@given(st.builds(lambda a: a & ~3, addr32), st.integers(0, 0xFFFFFFFF))
def test_word_round_trip(address, value):
    mem = Memory()
    mem.write_word(address, value)
    assert mem.read_word(address) == value


@given(st.builds(lambda a: a & ~1, addr32), st.integers(0, 0xFFFF))
def test_half_round_trip(address, value):
    mem = Memory()
    mem.write_half(address, value)
    assert mem.read_half(address) == value


@given(addr32, st.binary(min_size=1, max_size=64))
def test_block_round_trip(address, payload):
    mem = Memory()
    mem.write_block(address, payload)
    assert mem.read_block(address, len(payload)) == payload


@given(st.builds(lambda a: a & ~3, addr32), st.integers(0, 0xFFFFFFFF))
def test_byte_writes_compose_into_words(address, value):
    mem = Memory()
    for i in range(4):
        mem.write_byte(address + i, (value >> (8 * i)) & 0xFF)
    assert mem.read_word(address) == value
