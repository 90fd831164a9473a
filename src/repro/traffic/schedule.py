"""Deterministic traffic schedules: who asks for what, when.

A schedule is computed entirely up front from a :class:`TrafficSpec` and
the candidate workload names, so the same ``(spec, names)`` pair always
yields the identical request sequence — the replayer only adds wall-clock
pacing.  Three generators compose:

- **Popularity** — Zipf over a rank permutation of the names: the rank-r
  workload is requested with weight ``1/(r+1)**s``.  With ``s=0`` traffic
  is uniform; ``s≈1.1`` gives the classic hot-head/long-tail shape.
- **Hot-set rotation** — every ``hot_rotate`` seconds the rank
  permutation is reshuffled (seeded by the epoch number), modelling
  popularity drift: the head workloads change while the shape stays
  Zipf.  Rotation exercises exactly the caches that assume a stable hot
  set (batch coalescing, artifact store, fleet shard affinity).
- **Arrivals** — open-loop processes: ``poisson`` (exponential gaps at
  ``rate`` req/s), ``burst`` (Poisson bursts of ``burst`` back-to-back
  requests), or ``uniform`` (fixed gaps).

Priorities and deadlines are drawn per-request from the spec's mix and
ride the existing serve protocol fields (``priority``, ``timeout``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

ARRIVALS = ("poisson", "burst", "uniform")

#: epoch-mixing constant for rotation reshuffles.
_EPOCH_MIX = 0x9E37_79B9


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic mix, fully described."""

    seed: int = 0
    #: number of requests to schedule (ignored when ``duration`` is set).
    requests: int = 200
    #: schedule until this many seconds instead of a fixed count.
    duration: Optional[float] = None
    #: mean arrival rate, requests/second.
    rate: float = 50.0
    arrival: str = "poisson"
    #: requests per burst when ``arrival == "burst"``.
    burst: int = 8
    #: Zipf skew exponent; 0 = uniform popularity.
    zipf_s: float = 1.1
    #: seconds between hot-set rotations; 0 disables rotation.
    hot_rotate: float = 0.0
    #: priority mix drawn uniformly per request (serve orders by it).
    priorities: Tuple[int, ...] = (0,)
    #: fraction of requests carrying a server-side deadline.
    deadline_fraction: float = 0.0
    #: the deadline (seconds) attached to that fraction.
    deadline: float = 5.0

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["priorities"] = list(self.priorities)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrafficSpec":
        kwargs = dict(payload)
        if "priorities" in kwargs:
            kwargs["priorities"] = tuple(kwargs["priorities"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: when, what, and how urgent."""

    index: int
    #: seconds after replay start.
    at: float
    name: str
    priority: int
    #: server-side deadline in seconds, or None.
    deadline: Optional[float]
    #: which hot-set epoch the request belongs to.
    epoch: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def zipf_weights(count: int, s: float) -> List[float]:
    """Unnormalised Zipf weights for ranks 0..count-1."""
    return [1.0 / (rank + 1) ** s for rank in range(count)]


def _epoch_ranking(names: Sequence[str], seed: int,
                   epoch: int) -> List[str]:
    """The popularity ranking (hottest first) for one rotation epoch."""
    ranked = list(names)
    Random((seed + 1) * _EPOCH_MIX + epoch * 7919).shuffle(ranked)
    return ranked


def _cumulative(weights: Sequence[float]) -> List[float]:
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    return out


def _pick(cumulative: List[float], point: float) -> int:
    """Index of the first cumulative weight exceeding ``point``."""
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < point:
            lo = mid + 1
        else:
            hi = mid
    return lo


def arrival_times(spec: TrafficSpec) -> List[float]:
    """The deterministic arrival offsets (seconds) of the schedule."""
    if spec.arrival not in ARRIVALS:
        raise ValueError(
            f"unknown arrival process {spec.arrival!r}: expected one of "
            f"{', '.join(ARRIVALS)}")
    if spec.rate <= 0:
        raise ValueError("rate must be positive")
    rng = Random((spec.seed + 1) * 48271)
    times: List[float] = []
    t = 0.0

    def more() -> bool:
        if spec.duration is not None:
            return t <= spec.duration
        return len(times) < spec.requests

    if spec.arrival == "uniform":
        gap = 1.0 / spec.rate
        while True:
            t += gap
            if not more():
                break
            times.append(t)
    elif spec.arrival == "poisson":
        while True:
            t += rng.expovariate(spec.rate)
            if not more():
                break
            times.append(t)
    else:  # burst
        burst = max(1, spec.burst)
        burst_rate = spec.rate / burst
        while True:
            t += rng.expovariate(burst_rate)
            if not more():
                break
            for _ in range(burst):
                times.append(t)
                if spec.duration is None and len(times) >= spec.requests:
                    break
            if spec.duration is None and len(times) >= spec.requests:
                break
    if spec.duration is None:
        times = times[:spec.requests]
    return times


def build_schedule(spec: TrafficSpec,
                   names: Sequence[str]) -> List[ScheduledRequest]:
    """The full deterministic request schedule for ``spec`` over
    ``names``."""
    if not names:
        raise ValueError("traffic needs at least one workload name")
    times = arrival_times(spec)
    weights = zipf_weights(len(names), spec.zipf_s)
    cumulative = _cumulative(weights)
    total = cumulative[-1]
    draw = Random((spec.seed + 1) * 69621)

    schedule: List[ScheduledRequest] = []
    rankings: Dict[int, List[str]] = {}
    for index, at in enumerate(times):
        epoch = int(at // spec.hot_rotate) if spec.hot_rotate > 0 else 0
        ranking = rankings.get(epoch)
        if ranking is None:
            ranking = _epoch_ranking(names, spec.seed, epoch) \
                if spec.hot_rotate > 0 else list(names)
            rankings[epoch] = ranking
        name = ranking[_pick(cumulative, draw.random() * total)]
        priority = spec.priorities[draw.randrange(len(spec.priorities))]
        deadline = spec.deadline \
            if draw.random() < spec.deadline_fraction else None
        schedule.append(ScheduledRequest(
            index=index, at=at, name=name, priority=priority,
            deadline=deadline, epoch=epoch))
    return schedule


def popularity(schedule: Sequence[ScheduledRequest]) -> Dict[str, int]:
    """Request counts per workload, most-requested first."""
    counts: Dict[str, int] = {}
    for request in schedule:
        counts[request.name] = counts.get(request.name, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
