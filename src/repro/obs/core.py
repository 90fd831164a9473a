"""Telemetry objects: named counters, timers, and the event stream.

Design rules (these are what the overhead benchmark enforces):

- Every instrumented component takes a ``telemetry`` argument and
  defaults to :data:`NULL_TELEMETRY`.  The null object carries
  ``enabled = False``; *cold* call sites guard emission with one
  attribute check, and the two *hot* sites (reconfiguration-cache
  lookup, predictor update) swap an instrumented bound method onto the
  instance only when telemetry is enabled — so the disabled path
  executes byte-for-byte the uninstrumented method bodies.
- Telemetry is purely observational: no instrumented component ever
  branches on telemetry state for anything but emission, which is why
  cycle counts and suite/sweep JSON are identical enabled or disabled
  (asserted by ``tests/test_obs.py``).
- Counters/timers are unbounded dicts; the event stream is bounded
  drop-oldest (:class:`repro.obs.events.EventLog`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.events import (
    DEFAULT_MAX_EVENTS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    EventLog,
)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable point-in-time (or delta) view of a telemetry object.

    Snapshots are plain data: diffable, JSON round-trippable, and safe
    to hold across further instrumentation.  ``events_emitted`` counts
    emissions, not retained records, so deltas are exact even after the
    bounded log starts dropping.
    """

    counters: Mapping[str, int] = field(default_factory=dict)
    timers: Mapping[str, float] = field(default_factory=dict)
    events_emitted: int = 0

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def diff(self, earlier: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """The change from ``earlier`` to this snapshot.

        Zero-delta names are omitted, so tests can assert on exactly
        the counters an operation moved.
        """
        counters = {}
        for name in set(self.counters) | set(earlier.counters):
            delta = self.counters.get(name, 0) - earlier.counters.get(
                name, 0)
            if delta:
                counters[name] = delta
        timers = {}
        for name in set(self.timers) | set(earlier.timers):
            delta = self.timers.get(name, 0.0) - earlier.timers.get(
                name, 0.0)
            if delta:
                timers[name] = delta
        return TelemetrySnapshot(
            counters=counters, timers=timers,
            events_emitted=self.events_emitted - earlier.events_emitted)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "timers": dict(sorted(self.timers.items())),
            "events_emitted": self.events_emitted,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]
                  ) -> "TelemetrySnapshot":
        return cls(counters=dict(payload.get("counters", {})),
                   timers=dict(payload.get("timers", {})),
                   events_emitted=int(payload.get("events_emitted", 0)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TelemetrySnapshot):
            return NotImplemented
        return (dict(self.counters) == dict(other.counters)
                and dict(self.timers) == dict(other.timers)
                and self.events_emitted == other.events_emitted)

    def __hash__(self) -> int:  # frozen dataclass requires pairing __eq__
        return hash((tuple(sorted(self.counters.items())),
                     tuple(sorted(self.timers.items())),
                     self.events_emitted))


class Telemetry:
    """A live sink of named counters, timers and schema'd events."""

    enabled = True

    def __init__(self, max_events: Optional[int] = DEFAULT_MAX_EVENTS):
        """``max_events`` bounds the event stream; ``None`` or ``0``
        disables event recording entirely (counters/timers still work,
        and ``emit`` still validates and counts)."""
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.events: Optional[EventLog] = (
            EventLog(max_events) if max_events else None)
        self.events_emitted = 0

    # ------------------------------------------------------------------
    # Counters and timers.
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def count_many(self, counters: Mapping[str, int]) -> None:
        own = self.counters
        for name, n in counters.items():
            own[name] = own.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """``with tel.timer("phase.seconds"): ...`` convenience."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_time(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Events.
    # ------------------------------------------------------------------
    def emit(self, etype: str, **fields: object) -> None:
        """Record one event; ``etype`` must be in the closed schema."""
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown telemetry event type {etype!r} "
                             f"(schema v{SCHEMA_VERSION})")
        seq = self.events_emitted
        self.events_emitted += 1
        if self.events is not None:
            record: Dict[str, object] = {"seq": seq, "type": etype}
            record.update(fields)
            self.events.append(record)

    def absorb(self, counters: Mapping[str, int],
               timers: Mapping[str, float],
               records: Iterable[Mapping[str, object]],
               events_emitted: Optional[int] = None) -> None:
        """Fold a worker's exported payload into this telemetry.

        Used by the sweep engine's process-pool path: workers collect
        into a private Telemetry, export plain data, and the parent
        re-emits in deterministic (task-order) sequence.  If the worker
        reported a total ``events_emitted`` above its retained records
        (its bounded log dropped some), the difference is accounted
        here first, so total emission counts match a serial run.
        """
        self.count_many(counters)
        for name, seconds in timers.items():
            self.add_time(name, seconds)
        records = list(records)
        if events_emitted is not None and events_emitted > len(records):
            self.events_emitted += events_emitted - len(records)
        for record in records:
            fields = {key: value for key, value in record.items()
                      if key not in ("seq", "type")}
            self.emit(str(record["type"]), **fields)

    def export_payload(self) -> Tuple[Dict[str, int], Dict[str, float],
                                      List[Dict[str, object]], int]:
        """Plain-data form of this telemetry for cross-process return."""
        records = self.events.records if self.events is not None else []
        return (dict(self.counters), dict(self.timers), records,
                self.events_emitted)

    # ------------------------------------------------------------------
    # Snapshots and serialisation.
    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(counters=dict(self.counters),
                                 timers=dict(self.timers),
                                 events_emitted=self.events_emitted)

    def diff(self, before: TelemetrySnapshot) -> TelemetrySnapshot:
        """What changed since ``before`` (an earlier :meth:`snapshot`)."""
        return self.snapshot().diff(before)

    def meta_record(self) -> Dict[str, object]:
        recorded = len(self.events) if self.events is not None else 0
        return {
            "type": "meta",
            "schema_version": SCHEMA_VERSION,
            "events_emitted": self.events_emitted,
            "events_recorded": recorded,
            "events_dropped": self.events_emitted - recorded,
        }

    def as_dict(self) -> Dict[str, object]:
        payload = self.snapshot().as_dict()
        payload["events"] = self.meta_record()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_jsonl(self) -> str:
        """The meta header plus every recorded event, as JSONL text."""
        lines = [json.dumps(self.meta_record(), sort_keys=True)]
        if self.events is not None:
            lines.extend(json.dumps(record, sort_keys=True)
                         for record in self.events)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the line count."""
        text = self.to_jsonl()
        with open(path, "w") as handle:
            handle.write(text)
        return text.count("\n")


class NullTelemetry:
    """The do-nothing default sink.

    Components hold one of these when no telemetry was injected; every
    method is a no-op and ``enabled`` is False, which is what the
    guarded call sites check.  A single shared instance
    (:data:`NULL_TELEMETRY`) is used everywhere — the object is
    stateless.
    """

    enabled = False
    events: Optional[EventLog] = None
    events_emitted = 0

    def count(self, name: str, n: int = 1) -> None:
        pass

    def count_many(self, counters: Mapping[str, int]) -> None:
        pass

    def add_time(self, name: str, seconds: float) -> None:
        pass

    @contextmanager
    def timer(self, name: str):
        yield self

    def emit(self, etype: str, **fields: object) -> None:
        pass

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot()

    def diff(self, before: TelemetrySnapshot) -> TelemetrySnapshot:
        return TelemetrySnapshot().diff(before)


#: the shared null sink injected wherever no telemetry was supplied.
NULL_TELEMETRY = NullTelemetry()
