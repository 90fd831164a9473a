"""Persistent, content-addressed artifact cache for sweep evaluations.

Three artifact kinds are stored, mirroring the three stages of a matrix
sweep (see :mod:`repro.system.sweep`):

- ``trace`` — the basic-block :class:`~repro.sim.trace.Trace` of one
  workload's functional run, pickled as is (block table + one packed
  ``array('I')`` event column);
- ``baseline`` — the standalone-MIPS :class:`SystemMetrics` of a trace
  under one timing model;
- ``metrics`` — the accelerated :class:`SystemMetrics` of one
  (trace, system configuration) cell.

Every key is a SHA-256 over (a) a format version constant, (b) a *code
fingerprint* — the hash of every Python source file and every built-in
program image (:mod:`repro.workloads.images`) under the installed
``repro`` package — and (c) the artifact's own identity: the workload
name and mini-C source text, the timing-model fields, and (for cells)
the full system-configuration fingerprint.  Hashing the package source
makes invalidation automatic: any change to the simulator, compiler,
translator or evaluator produces new keys, so stale results can never be
served after a code edit.  The version constant exists for forced
invalidation when the *storage format* changes without a code change.

Each record holds the key, the pickled payload bytes and their SHA-256;
:meth:`ArtifactCache.load` checks the digest before it unpickles the
payload, so a bit flip is a miss instead of a silently wrong number.
Writes are atomic (temp file + ``os.replace``) so concurrent sweep
workers can share one cache directory; unreadable, truncated or
digest-mismatched entries are treated as misses, removed and counted
(``corrupt``).  The default location is ``$REPRO_CACHE_DIR``, falling
back to ``~/.cache/repro/artifacts``.

Two multi-process amenities sit on top of the plain store:

- **Scopes** — a cache opened with ``scope="<fingerprint>"`` places its
  entries under ``<root>/<scope>/`` instead of directly under the root.
  Keys are unchanged (they are content hashes either way); only the
  directory layout moves.  The evaluation fleet (:mod:`repro.fleet`)
  opens one scope per workload fingerprint so concurrent worker shards
  populating one ``REPRO_CACHE_DIR`` never contend on the same
  directories.
- **A size cap** — ``REPRO_CACHE_MAX_BYTES`` (or the ``max_bytes``
  argument) bounds the whole tree.  :meth:`ArtifactCache.prune` evicts
  least-recently-*read* entries first (``load`` refreshes an entry's
  atime explicitly, so LRU works even on ``noatime`` mounts), never
  touches entries pinned by an active reader, and leaves entries
  younger than a grace window alone so a reader in another process that
  just opened a file cannot have it deleted mid-read.  ``store`` checks
  the cap periodically, and ``repro cache {stats,prune}`` exposes both
  operations for ops use.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: bump to orphan every existing entry (storage-format changes).
FORMAT_VERSION = 1

_CODE_FINGERPRINT: Optional[str] = None


#: the package files whose bytes decide what a sweep computes: the
#: Python sources and the built-in workloads' program images (a rebuilt
#: image must never be served the traces of the old one).
FINGERPRINTED = ("*.py", "*.img")


def tree_fingerprint(package_root: Path) -> str:
    """SHA-256 over the :data:`FINGERPRINTED` files under ``package_root``
    (relative paths and contents, in sorted path order)."""
    digest = hashlib.sha256()
    paths = {path for pattern in FINGERPRINTED
             for path in package_root.rglob(pattern)}
    for path in sorted(paths):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def code_fingerprint() -> str:
    """:func:`tree_fingerprint` of the ``repro`` package (computed once)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        _CODE_FINGERPRINT = tree_fingerprint(
            Path(__file__).resolve().parent.parent)
    return _CODE_FINGERPRINT


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "artifacts"


#: how many stores between automatic size-cap checks.
_PRUNE_EVERY = 32

#: entries younger than this many seconds are never auto-evicted, so a
#: reader in another process that just opened a file keeps it.
_PRUNE_GRACE_SECONDS = 60.0


def _env_max_bytes() -> Optional[int]:
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class ArtifactCache:
    """Content-addressed pickle store with hit/miss accounting."""

    def __init__(self, root: Optional[Path] = None,
                 scope: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.scope = scope
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _env_max_bytes())
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: damaged entries (truncated, unreadable or digest-mismatched)
        #: that ``load`` dropped; each is also counted as a miss.
        self.corrupt = 0
        # one cache object may be shared by threaded warm workers
        # (repro.serve); the lock keeps the counters exact under that.
        self._lock = threading.Lock()
        #: keys currently held open by a reader; prune never evicts them.
        self._pinned: Dict[str, int] = {}
        self._stores_since_prune = 0

    # ------------------------------------------------------------------
    # Keys.
    # ------------------------------------------------------------------
    def key(self, kind: str, *parts: object) -> str:
        """Stable content hash for one artifact identity."""
        digest = hashlib.sha256()
        digest.update(f"v{FORMAT_VERSION}".encode())
        digest.update(code_fingerprint().encode())
        digest.update(kind.encode())
        for part in parts:
            digest.update(b"\0")
            digest.update(repr(part).encode())
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        base = self.root / self.scope if self.scope else self.root
        return base / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Reader pinning.
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def pin(self, key: str):
        """Hold ``key`` safe from :meth:`prune` while the block runs."""
        with self._lock:
            self._pinned[key] = self._pinned.get(key, 0) + 1
        try:
            yield
        finally:
            with self._lock:
                remaining = self._pinned.get(key, 1) - 1
                if remaining <= 0:
                    self._pinned.pop(key, None)
                else:
                    self._pinned[key] = remaining

    # ------------------------------------------------------------------
    # Generic object storage.
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[object]:
        """The stored object, or None on a miss (miss is counted).

        The payload is unpickled only after its bytes match the stored
        SHA-256; a mismatched or missing digest is a damaged entry, and
        so is a record filed under another key.  A damaged entry counts
        as ``corrupt`` and is unlinked, so it is read at most once.
        Readers racing a concurrent :meth:`store` of the same key are
        safe: publication is a single atomic ``os.replace``, so a
        reader sees either a complete previous record or a complete
        new one — never a torn entry (``tests/test_artifacts.py``
        hammers this from many threads).
        """
        path = self._path(key)
        try:
            with self.pin(key), open(path, "rb") as handle:
                record = pickle.load(handle)
            if record.get("key") != key:
                raise ValueError("foreign artifact record")
            body = record["payload"]
            if hashlib.sha256(body).digest() != record["sha256"]:
                raise ValueError("artifact digest mismatch")
            payload = pickle.loads(body)
            # refresh the access time explicitly: LRU pruning must work
            # even on noatime/relatime mounts.
            try:
                os.utime(path)
            except OSError:
                pass
            with self._lock:
                self.hits += 1
            return payload
        except FileNotFoundError:
            pass
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, KeyError, TypeError, ValueError):
            # damaged or foreign entry: drop it so it cannot recur
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.corrupt += 1
        with self._lock:
            self.misses += 1
        return None

    def store(self, key: str, payload: object) -> None:
        """Atomically publish one artifact (safe under concurrency).

        The record is fully written to a uniquely-named temp file in
        the destination directory, then published with ``os.replace``
        — the only point at which any reader can observe the key.  The
        temp file is removed on *every* failure (not just ``OSError``:
        an unpicklable payload must not leak ``.tmp-*`` litter either),
        so concurrent writers of one key simply race to publish
        equivalent records and the last replace wins.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        record = {"key": key, "sha256": hashlib.sha256(body).digest(),
                  "payload": body}
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=".tmp-", suffix=".pkl")
        published = False
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(record, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
            published = True
        finally:
            if not published:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        with self._lock:
            self.stores += 1
            self._stores_since_prune += 1
            due = (self.max_bytes is not None
                   and self._stores_since_prune >= _PRUNE_EVERY)
            if due:
                self._stores_since_prune = 0
        if due:
            self.prune()

    # ------------------------------------------------------------------
    # Size accounting and LRU pruning.
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Every published entry as ``(atime, size, path)``; scans the
        whole root so scoped caches account the shared tree."""
        entries: List[Tuple[float, int, Path]] = []
        for path in self.root.rglob("*.pkl"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append((max(info.st_atime, info.st_mtime),
                            info.st_size, path))
        return entries

    def stats(self) -> Dict[str, object]:
        """Size and age summary of the whole cache tree (ops view)."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        now = time.time()
        ages = [now - atime for atime, _, _ in entries]
        scopes = sorted({path.parent.parent.name
                         for _, _, path in entries
                         if path.parent.parent != self.root})
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": total,
            "max_bytes": self.max_bytes,
            "scopes": scopes,
            "oldest_age_seconds": max(ages) if ages else 0.0,
            "newest_age_seconds": min(ages) if ages else 0.0,
        }

    def prune(self, max_bytes: Optional[int] = None,
              grace_seconds: float = _PRUNE_GRACE_SECONDS
              ) -> Dict[str, int]:
        """Evict least-recently-read entries until the tree fits.

        Never evicts a key pinned by an active reader of *this*
        process, and never evicts entries accessed within
        ``grace_seconds`` — a reader in another process refreshes the
        atime the moment it opens an entry, so recently-opened files
        survive.  Returns an eviction report.
        """
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            raise ValueError("no size cap: pass max_bytes or set "
                             "REPRO_CACHE_MAX_BYTES")
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = evicted_bytes = 0
        if total > cap:
            with self._lock:
                pinned = set(self._pinned)
            cutoff = time.time() - grace_seconds
            for atime, size, path in sorted(entries):
                if total <= cap:
                    break
                if path.stem in pinned or atime > cutoff:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
                evicted_bytes += size
        with self._lock:
            self.evictions += evicted
        return {"evicted": evicted, "evicted_bytes": evicted_bytes,
                "remaining_bytes": total}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
