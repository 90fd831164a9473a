"""The open-loop traffic replayer.

Drives a live serve/fleet endpoint with a precomputed schedule (see
:mod:`repro.traffic.schedule`).  Open loop means arrivals do not wait
for completions: a submitter thread sleeps to each scheduled offset and
submits regardless of backlog, so queueing delay shows up as *latency*
(measured from the scheduled arrival, not the submit call) instead of
being silently absorbed — the honest way to measure a service under
load.  The main thread polls the service's job list and marks
completions; backpressure rejections (``queue_full``,
``fleet_saturated``, ``shutting_down``) are counted as shed, exactly the
signal the coordinator's load-shed path emits.

The report combines client-side observations (latency percentiles, shed
rate, throughput) with the server's own ``serve.*`` telemetry diff
(batch-coalescing hit rate), so the numbers cross-check against the
service's metrics endpoint.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.traffic.schedule import ScheduledRequest, TrafficSpec, \
    build_schedule, popularity

#: serve/fleet error codes that mean "load was shed", not "job failed".
SHED_CODES = frozenset({"queue_full", "fleet_saturated", "shutting_down"})


@dataclass
class TrafficStats:
    """Carrier for the closed ``traffic.*`` counter/timer namespace."""

    requests_planned: int = 0
    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_shed: int = 0
    requests_timed_out: int = 0
    hot_rotations: int = 0
    unique_workloads: int = 0
    max_outstanding: int = 0
    run_seconds: float = 0.0
    submit_seconds: float = 0.0
    poll_seconds: float = 0.0


@dataclass
class TrafficReport:
    """What a replay measured."""

    spec: TrafficSpec
    stats: TrafficStats
    #: per-request latency (seconds, scheduled arrival -> terminal).
    latencies: List[float] = field(default_factory=list)
    popularity: Dict[str, int] = field(default_factory=dict)
    #: server-side batch coalescing over the replay window.
    batches: int = 0
    batched_jobs: int = 0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def coalescing_rate(self) -> float:
        """Fraction of batched jobs that shared a batch with another."""
        if self.batched_jobs <= 0:
            return 0.0
        return 1.0 - min(self.batches, self.batched_jobs) \
            / self.batched_jobs

    @property
    def shed_rate(self) -> float:
        planned = self.stats.requests_planned
        return self.stats.requests_shed / planned if planned else 0.0

    @property
    def throughput_rps(self) -> float:
        if self.stats.run_seconds <= 0:
            return 0.0
        return self.stats.requests_completed / self.stats.run_seconds

    def summary(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "planned": self.stats.requests_planned,
            "submitted": self.stats.requests_submitted,
            "completed": self.stats.requests_completed,
            "failed": self.stats.requests_failed,
            "shed": self.stats.requests_shed,
            "timed_out": self.stats.requests_timed_out,
            "hot_rotations": self.stats.hot_rotations,
            "unique_workloads": self.stats.unique_workloads,
            "max_outstanding": self.stats.max_outstanding,
            "run_seconds": round(self.stats.run_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "latency_p90_ms": round(self.percentile(0.90) * 1e3, 3),
            "latency_p99_ms": round(self.percentile(0.99) * 1e3, 3),
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "coalescing_rate": round(self.coalescing_rate, 4),
            "shed_rate": round(self.shed_rate, 4),
            "popularity": self.popularity,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)


def _counter(metrics: Dict[str, object], name: str) -> int:
    counters = metrics.get("counters", {})
    value = counters.get(name, 0) if isinstance(counters, dict) else 0
    return int(value) if isinstance(value, (int, float)) else 0


class _Submitter(threading.Thread):
    """Sleeps to each scheduled arrival and submits, come what may."""

    def __init__(self, client, schedule: Sequence[ScheduledRequest],
                 spec: TrafficSpec, config: Dict[str, object],
                 state: "_ReplayState"):
        super().__init__(name="traffic-submitter", daemon=True)
        self.client = client
        self.schedule = schedule
        self.spec = spec
        self.config = config
        self.state = state

    def run(self) -> None:
        from repro.serve.client import ServeError

        state = self.state
        last_epoch: Optional[int] = None
        for request in self.schedule:
            if state.abort.is_set():
                break
            now = time.monotonic()
            wake = state.start + request.at
            if wake > now:
                time.sleep(wake - now)
            if last_epoch is not None and request.epoch != last_epoch:
                with state.lock:
                    state.stats.hot_rotations += 1
                state.emit("traffic.hot_rotated", epoch=request.epoch,
                           at=round(request.at, 6))
            last_epoch = request.epoch
            submit_started = time.monotonic()
            try:
                job = self.client.submit(
                    "evaluate", configs=[dict(self.config)],
                    names=[request.name],
                    priority=request.priority, timeout=request.deadline)
            except ServeError as error:
                with state.lock:
                    state.stats.submit_seconds += \
                        time.monotonic() - submit_started
                    if error.code in SHED_CODES:
                        state.stats.requests_shed += 1
                    else:
                        state.stats.requests_failed += 1
                    state.settled += 1
                state.emit("traffic.request_shed", index=request.index,
                           name=request.name, code=error.code)
                continue
            except OSError:
                with state.lock:
                    state.stats.requests_failed += 1
                    state.settled += 1
                continue
            with state.lock:
                state.stats.requests_submitted += 1
                state.stats.submit_seconds += \
                    time.monotonic() - submit_started
                state.pending[str(job["job_id"])] = request
            state.emit("traffic.request_submitted", index=request.index,
                       name=request.name, job_id=str(job["job_id"]),
                       priority=request.priority)
        state.done_submitting.set()


class _ReplayState:
    """Shared between the submitter and the polling loop."""

    def __init__(self, telemetry, stats: TrafficStats):
        self.lock = threading.Lock()
        self.start = 0.0
        self.pending: Dict[str, ScheduledRequest] = {}
        self.settled = 0
        self.stats = stats
        self.done_submitting = threading.Event()
        self.abort = threading.Event()
        self._telemetry = telemetry

    def emit(self, event_type: str, **fields) -> None:
        if self._telemetry is not None:
            with self.lock:
                self._telemetry.emit(event_type, **fields)


def replay_traffic(client, spec: TrafficSpec,
                   names: Sequence[str],
                   config: Optional[Dict[str, object]] = None,
                   telemetry=None,
                   poll: float = 0.05,
                   drain_timeout: float = 300.0,
                   stats: Optional[TrafficStats] = None) -> TrafficReport:
    """Replay ``spec`` against a live service; return the report.

    ``client`` is any object speaking the :class:`ServeClient` surface
    (a direct server or a fleet coordinator — both serve the same /v1
    protocol).  ``config`` is the system configuration each evaluate job
    carries; defaults to the paper's C2/64/speculative array.
    """
    from repro.serve.protocol import JobState

    schedule = build_schedule(spec, names)
    config = config or {"array": "C2", "slots": 64, "speculation": True}
    stats = stats if stats is not None else TrafficStats()
    stats.requests_planned = len(schedule)
    stats.unique_workloads = len({request.name for request in schedule})
    state = _ReplayState(telemetry, stats)

    before = client.metrics()
    latencies: List[float] = []
    state.start = time.monotonic()
    submitter = _Submitter(client, schedule, spec, config, state)
    submitter.start()

    deadline = state.start + drain_timeout
    while True:
        with state.lock:
            outstanding = len(state.pending)
            settled = state.settled
        stats.max_outstanding = max(stats.max_outstanding, outstanding)
        if state.done_submitting.is_set() and outstanding == 0:
            break
        if time.monotonic() > deadline:
            state.abort.set()
            with state.lock:
                stats.requests_timed_out += len(state.pending)
                state.pending.clear()
            break
        time.sleep(poll)
        poll_started = time.monotonic()
        try:
            jobs = client.jobs()
        except OSError:
            continue
        finally:
            stats.poll_seconds += time.monotonic() - poll_started
        observed = time.monotonic()
        states = {str(job["job_id"]): str(job.get("state", ""))
                  for job in jobs}
        finished: List[tuple] = []
        with state.lock:
            for job_id, request in list(state.pending.items()):
                job_state = states.get(job_id)
                if job_state in JobState.TERMINAL:
                    del state.pending[job_id]
                    state.settled += 1
                    latency = observed - (state.start + request.at)
                    if job_state == JobState.DONE:
                        stats.requests_completed += 1
                        latencies.append(latency)
                    elif job_state == JobState.TIMEOUT:
                        stats.requests_timed_out += 1
                    else:
                        stats.requests_failed += 1
                    finished.append((request, job_id, job_state, latency))
        for request, job_id, job_state, latency in finished:
            state.emit("traffic.request_finished", index=request.index,
                       name=request.name, job_id=job_id, state=job_state,
                       latency_ms=round(latency * 1e3, 3))
    submitter.join(timeout=10.0)
    stats.run_seconds = time.monotonic() - state.start

    after = client.metrics()
    report = TrafficReport(
        spec=spec, stats=stats, latencies=latencies,
        popularity=popularity(schedule),
        batches=_counter(after, "serve.batches")
        - _counter(before, "serve.batches"),
        batched_jobs=_counter(after, "serve.batched_jobs")
        - _counter(before, "serve.batched_jobs"))
    if telemetry is not None:
        from repro.obs.schema import traffic_counters, traffic_timers

        state.emit("traffic.replay_done",
                   planned=stats.requests_planned,
                   completed=stats.requests_completed,
                   shed=stats.requests_shed,
                   p99_ms=report.summary()["latency_p99_ms"])
        with state.lock:
            telemetry.count_many(traffic_counters(stats))
            for name, value in traffic_timers(stats).items():
                telemetry.add_time(name, value)
    return report
