"""Concurrency guarantees of the persistent artifact cache.

The evaluation service runs warm workers that share one cache
directory; these tests hammer a single key from many threads and
assert no reader ever observes a torn or foreign record, and that
failed stores never leak ``.tmp-*`` litter.
"""

import os
import pickle
import threading
import time

import pytest

from repro.system.artifacts import ArtifactCache


def test_store_load_round_trip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "round-trip")
    assert cache.load(key) is None
    cache.store(key, {"cycles": 123})
    assert cache.load(key) == {"cycles": 123}
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1


def test_one_key_hammered_from_threads(tmp_path):
    """Parallel writers + readers on ONE key: every read is either a
    miss (before first publication) or one of the complete published
    payloads — never an exception, never a torn record."""
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "hammer")
    valid_payloads = {f"payload-{writer}-{iteration}"
                      for writer in range(4) for iteration in range(25)}
    failures = []
    start = threading.Barrier(8)

    def writer(writer_id):
        start.wait()
        for iteration in range(25):
            cache.store(key, f"payload-{writer_id}-{iteration}")

    def reader():
        start.wait()
        own = ArtifactCache(tmp_path)  # distinct object, same dir
        for _ in range(200):
            value = own.load(key)
            if value is not None and value not in valid_payloads:
                failures.append(value)

    threads = [threading.Thread(target=writer, args=(i,))
               for i in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert failures == []
    # after the dust settles the key holds one complete valid payload
    assert cache.load(key) in valid_payloads
    assert cache.stores == 100
    # and no temp litter survived the race
    assert not list(tmp_path.rglob(".tmp-*"))


def test_failed_store_leaves_no_tmp_litter(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "unpicklable")
    with pytest.raises(Exception):
        cache.store(key, lambda: None)  # lambdas cannot pickle
    assert not list(tmp_path.rglob(".tmp-*"))
    assert cache.load(key) is None


def test_damaged_entry_is_dropped_and_recovers(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "damage")
    cache.store(key, "good")
    path = cache._path(key)
    path.write_bytes(b"\x80\x04 torn!")  # truncated pickle
    assert cache.load(key) is None
    assert not path.exists()  # dropped so it cannot recur
    cache.store(key, "fresh")
    assert cache.load(key) == "fresh"


def test_bit_flipped_entry_is_a_miss(tmp_path):
    """A flipped bit in the stored payload fails the digest check, so
    the load misses (and drops the entry) instead of returning a wrong
    number."""
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "bitflip")
    cache.store(key, {"cycles": 123456789})
    path = cache._path(key)
    data = bytearray(path.read_bytes())
    stored = (123456789).to_bytes(4, "little")
    assert data.count(stored) == 1
    data[data.index(stored)] ^= 1
    path.write_bytes(bytes(data))
    assert cache.load(key) is None
    assert not path.exists()


def test_counters_exact_under_threaded_loads(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "counted")
    cache.store(key, "value")
    start = threading.Barrier(8)

    def loader():
        start.wait()
        for _ in range(250):
            assert cache.load(key) == "value"

    threads = [threading.Thread(target=loader) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert cache.hits == 8 * 250
    assert cache.misses == 0


def test_foreign_key_record_is_a_miss(tmp_path):
    """A record whose embedded key disagrees (e.g. a hash-prefix
    collision or hand-copied file) is treated as a miss."""
    cache = ArtifactCache(tmp_path)
    key = cache.key("metrics", "unit", "foreign")
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"key": "someone-else",
                                   "payload": "nope"}))
    assert cache.load(key) is None


# ----------------------------------------------------------------------
# Scopes and the size cap (the fleet's shared-store mode).
# ----------------------------------------------------------------------
def _age(cache, key, seconds):
    """Backdate one entry's atime/mtime (simulates an old artifact)."""
    path = cache._path(key)
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def test_scoped_caches_share_keys_but_not_directories(tmp_path):
    plain = ArtifactCache(tmp_path)
    scoped = ArtifactCache(tmp_path, scope="fp00aa")
    key = plain.key("metrics", "unit", "scoped")
    assert scoped.key("metrics", "unit", "scoped") == key  # same hash
    scoped.store(key, "in-scope")
    plain.store(key, "at-root")
    assert scoped._path(key) != plain._path(key)
    assert scoped._path(key).parent.parent == tmp_path / "fp00aa"
    assert scoped.load(key) == "in-scope"
    assert plain.load(key) == "at-root"
    stats = plain.stats()
    assert stats["entries"] == 2  # stats() accounts the whole tree
    assert stats["scopes"] == ["fp00aa"]


def test_prune_requires_a_cap(tmp_path):
    cache = ArtifactCache(tmp_path)
    with pytest.raises(ValueError):
        cache.prune()


def test_prune_evicts_least_recently_read_first(tmp_path):
    cache = ArtifactCache(tmp_path)
    keys = [cache.key("metrics", "unit", f"lru-{i}") for i in range(4)]
    for key in keys:
        cache.store(key, "x" * 4096)
    for index, key in enumerate(keys):
        _age(cache, key, 4000 - index * 1000)  # keys[0] is the oldest
    cache.load(keys[0])  # a read refreshes recency: now the freshest
    sizes = [cache._path(key).stat().st_size for key in keys]
    cap = sizes[0] * 2 + 1  # room for two entries
    report = cache.prune(max_bytes=cap)
    assert report["evicted"] == 2
    assert report["remaining_bytes"] <= cap
    # the two oldest *unread* entries went; the read one survived
    assert cache._path(keys[0]).exists()
    assert not cache._path(keys[1]).exists()
    assert not cache._path(keys[2]).exists()
    assert cache._path(keys[3]).exists()
    assert cache.evictions == 2


def test_prune_never_evicts_pinned_or_fresh_entries(tmp_path):
    cache = ArtifactCache(tmp_path)
    pinned_key = cache.key("metrics", "unit", "pinned")
    fresh_key = cache.key("metrics", "unit", "fresh")
    old_key = cache.key("metrics", "unit", "old")
    for key in (pinned_key, fresh_key, old_key):
        cache.store(key, "y" * 2048)
    _age(cache, pinned_key, 9000)
    _age(cache, old_key, 8000)  # fresh_key keeps its just-written time
    with cache.pin(pinned_key):
        report = cache.prune(max_bytes=1)
    # only the old unpinned entry was evictable
    assert report["evicted"] == 1
    assert cache._path(pinned_key).exists()
    assert cache._path(fresh_key).exists()  # inside the grace window
    assert not cache._path(old_key).exists()
    # unpinned now, and with no grace, the pinned one goes too
    report = cache.prune(max_bytes=1, grace_seconds=0.0)
    assert not cache._path(pinned_key).exists()
    assert report["remaining_bytes"] == 0


def test_store_auto_prunes_under_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "8192")
    cache = ArtifactCache(tmp_path)
    assert cache.max_bytes == 8192
    from repro.system import artifacts as mod
    # every store checks the cap (test the trigger, not the cadence)
    monkeypatch.setattr(mod, "_PRUNE_EVERY", 1)
    for index in range(8):
        key = cache.key("metrics", "unit", f"auto-{index}")
        cache.store(key, "z" * 4096)
        _age(cache, key, 600)  # outside the grace window
    assert cache.evictions > 0
    assert sum(size for _, size, _ in cache._entries()) <= 8192


def test_bad_env_cap_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
    assert ArtifactCache(tmp_path).max_bytes is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
    assert ArtifactCache(tmp_path).max_bytes is None
