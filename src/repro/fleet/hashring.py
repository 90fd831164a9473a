"""Consistent-hash shard assignment for the evaluation fleet.

The coordinator maps every job's *workload fingerprint* (the batch-
coalescing key of :class:`repro.serve.protocol.JobRequest`) to one
worker shard.  Requirements:

- **Determinism** — the same fingerprint always lands on the same live
  worker, so a shard accumulates that fingerprint's trace and columnar
  context once and serves every later job from
  warm state, and its batch scheduler keeps coalescing same-workload
  jobs into single replays.
- **Stability under membership change** — when a worker joins or dies,
  only the fingerprints owned by the affected arc move; everything else
  keeps its shard (and its warm caches).  A mod-N table would reshuffle
  nearly every fingerprint on every failover.

Implementation: the classic ring.  Each worker id is hashed to
``replicas`` virtual points on a 64-bit circle (more points = smoother
load spread); a fingerprint hashes to one point and walks clockwise to
the first live worker.  Hashes are SHA-256 (stable across processes and
Python versions — ``hash()`` is salted and useless here).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Tuple

#: virtual points per worker; 128 keeps the max/mean shard load within
#: ~1.3x for small fleets without noticeable lookup cost.
DEFAULT_REPLICAS = 128


def _point(data: str) -> int:
    """A stable 64-bit position on the ring."""
    digest = hashlib.sha256(data.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over worker ids."""

    def __init__(self, replicas: int = DEFAULT_REPLICAS):
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []  # sorted (point, node)
        self._keys: List[int] = []
        self._nodes: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Membership.
    # ------------------------------------------------------------------
    def add(self, node: str) -> None:
        """Add ``node``; idempotent."""
        if node in self._nodes:
            return
        points = [_point(f"{node}#{replica}")
                  for replica in range(self.replicas)]
        self._nodes[node] = points
        for point in points:
            index = bisect.bisect(self._keys, point)
            self._keys.insert(index, point)
            self._points.insert(index, (point, node))

    def remove(self, node: str) -> None:
        """Remove ``node``; idempotent."""
        if node not in self._nodes:
            return
        del self._nodes[node]
        self._points = [(point, owner) for point, owner in self._points
                        if owner != node]
        self._keys = [point for point, _ in self._points]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def node_for(self, key: str) -> Optional[str]:
        """The live worker owning ``key``, or None on an empty ring."""
        if not self._keys:
            return None
        index = bisect.bisect(self._keys, _point(key))
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def preference(self, key: str) -> List[str]:
        """Every node in fallback order for ``key``: the owner first,
        then each next-distinct node clockwise.  The coordinator walks
        this list when a forward fails mid-submission."""
        if not self._keys:
            return []
        order: List[str] = []
        start = bisect.bisect(self._keys, _point(key))
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in order:
                order.append(node)
                if len(order) == len(self._nodes):
                    break
        return order

    def assignment(self, keys: List[str]) -> Dict[str, List[str]]:
        """Bulk view: node -> keys it owns (balance diagnostics)."""
        shards: Dict[str, List[str]] = {node: [] for node in self._nodes}
        for key in keys:
            owner = self.node_for(key)
            if owner is not None:
                shards[owner].append(key)
        return shards
