"""The telemetry event schema and the bounded event log.

Every observable *event* in the system — as opposed to a *counter*,
which only accumulates — is one flat JSON-serialisable record:

``{"seq": <int>, "type": <schema name>, ...payload fields}``

The schema is closed: :meth:`repro.obs.Telemetry.emit` rejects event
types that are not in :data:`EVENT_TYPES`, so a JSONL stream written by
any component is schema-valid by construction and
:func:`validate_event` only needs to police *shape* (types of the
common fields and JSON-compatibility of the payload).

The log is bounded (drop-oldest) so an instrumented full-suite sweep —
hundreds of thousands of reconfiguration-cache probes — cannot grow
memory without limit; the total emitted count is always tracked, so
``dropped`` is exact.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, List

#: bump when a record's shape or an event's meaning changes.
SCHEMA_VERSION = 1

#: default bound of one event log (drop-oldest beyond this).
DEFAULT_MAX_EVENTS = 65_536

#: The closed set of event types, plus the two records
#: :meth:`repro.obs.Telemetry.write_jsonl` frames them with: the "meta"
#: header on the first line and, when the run counted anything, the
#: "counters" trailer on the last (every counter, name -> integer).
EVENT_TYPES = frozenset({
    "meta",
    "counters",
    # DIM binary translation lifecycle
    "translation.started",      # a block is handed to the translator
    "translation.committed",    # a configuration entered the rcache
    "translation.evicted",      # a configuration was flushed out of it
    # reconfiguration cache
    "rcache.hit",
    "rcache.miss",
    "rcache.evict",             # capacity eviction (FIFO/LRU victim)
    # bimodal predictor / speculation
    "predictor.update",
    "predictor.flush",          # mispredict-driven configuration flush
    "speculation.extension",    # a cached config was deepened
    # dynamic control-flow translation (repro.dim dynflow modes)
    "dynflow.loop_committed",   # a loop configuration entered the rcache
    "dynflow.dual_committed",   # a dual-path configuration entered it
    # sweep engine
    "sweep.cell_replayed",      # one (workload, system) cell evaluated live
    # evaluation service (repro.serve)
    "serve.job_submitted",      # a job entered the bounded queue
    "serve.batch_dispatched",   # a coalesced batch left for a worker
    "serve.job_retried",        # a worker failure triggered a retry
    "serve.job_finished",       # a job reached a terminal state
    # design-space exploration (repro.dse)
    "dse.batch_evaluated",      # a candidate batch was scored
    "dse.rung_promoted",        # shalving promoted survivors to full
    "dse.frontier_computed",    # an exploration finished its frontier
    # evaluation fleet (repro.fleet)
    "fleet.worker_registered",  # a worker shard joined the hash ring
    "fleet.worker_lost",        # heartbeats failed; shard marked dead
    "fleet.job_dispatched",     # a job was forwarded to its shard
    "fleet.job_redispatched",   # a dead shard's job moved to a survivor
    "fleet.job_shed",           # the in-flight cap rejected a submission
    "fleet.job_finished",       # a job's result (or error) was cached
    # MPSoC scenario layer (repro.mpsoc)
    "mpsoc.space_pruned",       # budget feasibility filtered the space
    "mpsoc.allocation_scored",  # one allocation dispatched + composed
    # synthetic workload corpus (repro.corpus)
    "corpus.kernel_generated",  # one kernel emitted + self-checked
    "corpus.manifest_written",  # a corpus manifest reached disk
    "corpus.registered",        # a manifest's kernels joined the registry
    # traffic replay (repro.traffic)
    "traffic.request_submitted",  # one scheduled request was submitted
    "traffic.request_finished",   # a request reached a terminal state
    "traffic.request_shed",       # backpressure rejected a submission
    "traffic.hot_rotated",        # the Zipf hot set rotated
    "traffic.replay_done",        # a replay finished; summary follows
})

_SCALAR_TYPES = (str, int, float, bool, type(None))


class EventLog:
    """Bounded drop-oldest store of telemetry event records."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self._records: Deque[Dict[str, object]] = deque(maxlen=max_events)
        #: total records ever appended (recorded + dropped).
        self.emitted = 0

    def append(self, record: Dict[str, object]) -> None:
        self._records.append(record)
        self.emitted += 1

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._records)

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def to_jsonl(self) -> str:
        """The recorded events, one sorted-key JSON object per line."""
        return "\n".join(json.dumps(record, sort_keys=True)
                         for record in self._records)


def validate_event(record: object) -> List[str]:
    """Schema-check one event record; returns a list of problems.

    An empty list means the record is valid.  Used by the tests and by
    consumers of ``repro sweep --telemetry`` streams.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    etype = record.get("type")
    if etype not in EVENT_TYPES:
        problems.append(f"unknown event type {etype!r}")
    if etype == "meta":
        version = record.get("schema_version")
        if not isinstance(version, int):
            problems.append("meta record missing integer schema_version")
    elif etype == "counters":
        for key, value in record.items():
            if key != "type" and (not isinstance(value, int)
                                  or isinstance(value, bool)):
                problems.append(f"counter {key!r} is not an integer")
    else:
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            problems.append(f"bad seq {seq!r}")
    for key, value in record.items():
        if not isinstance(key, str):
            problems.append(f"non-string field name {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            problems.append(f"field {key!r} is not a JSON scalar")
    return problems


def validate_jsonl(lines: Iterable[str]) -> List[str]:
    """Validate a whole JSONL telemetry stream; returns all problems."""
    problems: List[str] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not JSON ({exc})")
            continue
        for problem in validate_event(record):
            problems.append(f"line {lineno}: {problem}")
    return problems
