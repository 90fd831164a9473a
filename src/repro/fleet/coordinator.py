"""The fleet coordinator: fingerprint-sharded job routing with failover.

One :class:`FleetCoordinator` fronts N worker ``repro serve`` instances
(:class:`repro.serve.server.EvalService` behind HTTP).  It speaks the
same versioned JSON protocol as a single server — ``submit`` /
``status`` / ``result`` / ``cancel`` / ``jobs`` / ``metrics`` — so the
blocking :class:`repro.serve.client.ServeClient` and every existing CLI
verb work against a fleet unchanged; over HTTP it sits behind the same
front end as a single server (:mod:`repro.serve.frontend`).  What it
adds:

- **Fingerprint sharding.**  Every submission is validated once, its
  workload fingerprint computed, and the job forwarded to the worker a
  consistent-hash ring (:mod:`repro.fleet.hashring`) assigns that
  fingerprint.  All jobs replaying the same workload traces land on the
  same shard, so each worker keeps its trace/columnar-context locality and
  its batch scheduler keeps coalescing them into single columnar
  replays — the fleet scales the *number of distinct fingerprints*
  across machines without giving up the single-server batching wins.
- **Registration, heartbeat, failover.**  Workers are registered
  explicitly (``POST /v1/register``).  A monitor thread polls every
  worker each ``heartbeat_interval``; the poll doubles as the state
  sync (one ``jobs`` listing per worker per cycle, not one request per
  job) and as the liveness probe.  ``heartbeat_failures`` consecutive
  failed polls mark a worker dead: it leaves the ring and every job it
  still owed a result is **re-dispatched** to the surviving shards
  (``fleet.redispatch``).  Batch evaluation is deterministic, so a
  re-run yields byte-identical results.
- **Result caching.**  The monitor fetches every finished job's result
  payload into the coordinator the moment it is terminal, so a worker
  crash after completion loses nothing and clients never talk to
  workers directly.
- **Load shedding.**  ``max_inflight`` bounds the jobs the fleet holds
  un-finished.  Beyond it, submissions fail at once with the structured
  ``fleet_saturated`` error (HTTP 429) instead of queueing without
  bound — the streaming client (:mod:`repro.fleet.client`) backs off
  and retries on exactly that code.

Everything observable flows through ``fleet.*`` counters/timers/events
in the closed :mod:`repro.obs` schema.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.obs import Telemetry
from repro.obs.schema import fleet_counters, fleet_timers
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobState,
    ProtocolError,
    metrics_document,
    result_reply,
    validate_submission,
)
from repro.fleet.hashring import HashRing

#: everything a worker request can raise when the worker is dying:
#: refused/reset sockets (OSError) and torn HTTP exchanges
#: (BadStatusLine et al. are not OSError subclasses).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class FleetStats:
    """Coordinator counters, the carrier behind ``fleet.*`` telemetry."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_shed: int = 0
    forwards: int = 0
    forward_failures: int = 0
    redispatches: int = 0
    workers_registered: int = 0
    workers_lost: int = 0
    poll_cycles: int = 0
    max_inflight_seen: int = 0
    forward_seconds: float = 0.0
    poll_seconds: float = 0.0


@dataclass
class WorkerHandle:
    """One registered worker shard and its pooled client."""

    id: str
    url: str
    client: ServeClient
    alive: bool = True
    failures: int = 0
    jobs_owned: int = 0


@dataclass
class FleetJob:
    """One fleet-level job and where it currently lives."""

    id: str
    payload: Dict[str, object]  # normalised spec, replayable verbatim
    kind: str
    fingerprint: str
    priority: int
    worker_id: Optional[str] = None
    remote_id: Optional[str] = None
    state: str = JobState.PENDING
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    redispatches: int = 0
    batch_width: int = 0
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    #: True while a forward is in progress; keeps the monitor's
    #: stranded-job retry from double-submitting a job whose first
    #: forward has not finished yet.
    dispatching: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def status(self) -> Dict[str, object]:
        """Wire status, shaped like a single server's job status."""
        payload: Dict[str, object] = {
            "job_id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "attempts": self.redispatches + 1,
            "batch_width": self.batch_width,
            "worker": self.worker_id,
        }
        if self.error is not None:
            payload["error"] = dict(self.error)
        return payload


class FleetCoordinator:
    """Shards jobs across worker servers by workload fingerprint."""

    def __init__(self, max_inflight: int = 1024,
                 heartbeat_interval: float = 0.25,
                 heartbeat_failures: int = 3,
                 max_redispatch: int = 3,
                 worker_timeout: float = 60.0,
                 telemetry: Optional[Telemetry] = None):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.max_inflight = max_inflight
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_failures = heartbeat_failures
        self.max_redispatch = max_redispatch
        self.worker_timeout = worker_timeout
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.stats = FleetStats()
        self.ring = HashRing()
        self.workers: Dict[str, WorkerHandle] = {}
        self.jobs: Dict[str, FleetJob] = {}
        self._seq = itertools.count(1)
        self._lock = threading.RLock()
        self._accepting = True
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "FleetCoordinator":
        assert self._monitor is None, "coordinator already started"
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="repro-fleet-monitor",
                                         daemon=True)
        self._monitor.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 300.0,
             shutdown_workers: bool = False) -> Dict[str, object]:
        """Stop the fleet; with ``drain`` wait for every accepted job's
        result to be cached first, so a clean shutdown strands nothing."""
        self._accepting = False
        deadline = time.monotonic() + timeout
        if drain:
            while self.inflight and time.monotonic() < deadline:
                if self._monitor is None:  # inline use: step manually
                    self.poll_once()
                time.sleep(min(0.02, self.heartbeat_interval))
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        downed: List[str] = []
        if shutdown_workers:
            for worker in list(self.workers.values()):
                if not worker.alive:
                    continue
                try:
                    worker.client.shutdown(drain=drain)
                    downed.append(worker.id)
                except (ServeError, *_TRANSPORT_ERRORS):
                    pass
        return {"drained": drain, "active": self.inflight,
                "jobs": len(self.jobs), "workers_shutdown": downed}

    def shutdown(self, options: Mapping[str, object]) -> Dict[str, object]:
        """The ``shutdown`` route: :meth:`stop`, draining unless the
        body says ``{"drain": false}`` and stopping the workers too when
        it says ``{"workers": true}``."""
        return self.stop(drain=bool(options.get("drain", True)),
                         shutdown_workers=bool(options.get("workers",
                                                           False)))

    # ------------------------------------------------------------------
    # Worker membership.
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str,
                        url: str) -> Dict[str, object]:
        """Add (or re-add) a worker shard; verifies it is reachable."""
        if not worker_id or not isinstance(worker_id, str):
            raise ProtocolError("bad_param", "worker_id must be a "
                                "non-empty string", "worker_id")
        if not isinstance(url, str) or not url.startswith("http"):
            raise ProtocolError("bad_param", "url must be an http URL",
                                "url")
        client = ServeClient(url, timeout=self.worker_timeout)
        try:
            health = client.healthz()
        except (ServeError, *_TRANSPORT_ERRORS) as exc:
            raise ProtocolError("bad_param",
                                f"worker {worker_id!r} at {url} is not "
                                f"reachable: {exc}", "url")
        if health.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError("bad_param",
                                f"worker {worker_id!r} speaks protocol "
                                f"{health.get('protocol')}, coordinator "
                                f"speaks {PROTOCOL_VERSION}", "url")
        with self._lock:
            previous = self.workers.get(worker_id)
            if previous is not None and previous.alive:
                previous.url, previous.client = url, client
                return {"worker_id": worker_id, "workers": len(self.ring)}
            self.workers[worker_id] = WorkerHandle(id=worker_id, url=url,
                                                   client=client)
            self.ring.add(worker_id)
            self.stats.workers_registered += 1
            if self.telemetry.enabled:
                self.telemetry.emit("fleet.worker_registered",
                                    worker_id=worker_id, url=url,
                                    workers=len(self.ring))
        return {"worker_id": worker_id, "workers": len(self.ring)}

    def heartbeat(self, worker_id: str) -> Dict[str, object]:
        """Worker-initiated liveness push: resets the failure count."""
        with self._lock:
            worker = self.workers.get(worker_id)
            if worker is None:
                raise ProtocolError("unknown_worker",
                                    f"no worker {worker_id!r}",
                                    http_status=404)
            worker.failures = 0
            return {"worker_id": worker_id, "alive": worker.alive}

    def _mark_dead(self, worker: WorkerHandle) -> None:
        """Remove a dead worker from the ring and rescue its jobs."""
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            self.ring.remove(worker.id)
            self.stats.workers_lost += 1
            if self.telemetry.enabled:
                self.telemetry.emit("fleet.worker_lost",
                                    worker_id=worker.id,
                                    workers=len(self.ring))
            orphans = [job for job in self.jobs.values()
                       if job.worker_id == worker.id and not job.terminal]
        for job in orphans:
            self._redispatch(job)

    # ------------------------------------------------------------------
    # Submission and routing.
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        with self._lock:
            return sum(1 for job in self.jobs.values()
                       if not job.terminal)

    def live_workers(self) -> List[str]:
        with self._lock:
            return [w.id for w in self.workers.values() if w.alive]

    def submit(self, payload: object) -> Dict[str, object]:
        """Validate, shard by fingerprint, and forward one job."""
        if not self._accepting:
            raise ProtocolError("shutting_down",
                                "fleet is draining; submission rejected",
                                http_status=503)
        request = validate_submission(payload)
        spec = request.as_dict()
        with self._lock:
            inflight = sum(1 for job in self.jobs.values()
                           if not job.terminal)
            if inflight >= self.max_inflight:
                self.stats.jobs_shed += 1
                if self.telemetry.enabled:
                    self.telemetry.emit("fleet.job_shed",
                                        fingerprint=request.fingerprint,
                                        inflight=inflight)
                raise ProtocolError(
                    "fleet_saturated",
                    f"fleet holds {inflight} unfinished jobs "
                    f"(cap {self.max_inflight}); back off and resubmit",
                    http_status=429)
            job = FleetJob(id=f"f{next(self._seq):06d}", payload=spec,
                           kind=request.kind,
                           fingerprint=request.fingerprint,
                           priority=request.priority,
                           submitted_at=time.monotonic(),
                           dispatching=True)
            self.jobs[job.id] = job
            self.stats.jobs_submitted += 1
            self.stats.max_inflight_seen = max(
                self.stats.max_inflight_seen, inflight + 1)
        try:
            self._dispatch(job)
        except ProtocolError as exc:
            # submission-time forwarding failure: the job never reached
            # a shard, so it must not linger in the fleet table.
            with self._lock:
                self.jobs.pop(job.id, None)
                self.stats.jobs_submitted -= 1
                if exc.code == "fleet_saturated":
                    self.stats.jobs_shed += 1
                    if self.telemetry.enabled:
                        self.telemetry.emit(
                            "fleet.job_shed",
                            fingerprint=job.fingerprint,
                            inflight=inflight)
            raise
        return job.status()

    def _dispatch(self, job: FleetJob) -> None:
        """:meth:`_forward` under the ``dispatching`` guard."""
        with self._lock:
            job.dispatching = True
        try:
            self._forward(job)
        finally:
            with self._lock:
                job.dispatching = False

    def _forward(self, job: FleetJob) -> None:
        """Send ``job`` to the shard its fingerprint owns; on a dead or
        unreachable owner, walk the ring's fallback order.

        Raises :class:`ProtocolError` (``fleet_saturated`` on shard
        backpressure, ``no_workers`` when every shard is gone or
        refused) and leaves the job unassigned; callers decide whether
        that drops the job (submission) or parks it (re-dispatch).
        """
        start = time.perf_counter()
        try:
            with self._lock:
                order = [worker_id
                         for worker_id in self.ring.preference(
                             job.fingerprint)
                         if self.workers[worker_id].alive]
            if not order:
                raise ProtocolError("no_workers",
                                    "no live workers in the fleet",
                                    http_status=503)
            for worker_id in order:
                with self._lock:
                    worker = self.workers.get(worker_id)
                    if worker is None or not worker.alive:
                        continue
                try:
                    remote = worker.client.submit_payload(job.payload)
                except ServeError as exc:
                    if exc.code in ("queue_full", "shutting_down"):
                        # genuine backpressure from the shard its
                        # fingerprint owns: surface it as a shed so the
                        # client backs off instead of breaking locality
                        # by spilling onto another shard.
                        raise ProtocolError(
                            "fleet_saturated",
                            f"shard {worker_id} rejected the job "
                            f"({exc.code}): {exc}", http_status=429)
                    with self._lock:
                        self.stats.forward_failures += 1
                    continue
                except _TRANSPORT_ERRORS:
                    with self._lock:
                        self.stats.forward_failures += 1
                        worker.failures += 1
                    continue
                with self._lock:
                    job.worker_id = worker_id
                    job.remote_id = remote["job_id"]
                    job.state = remote.get("state", JobState.PENDING)
                    worker.jobs_owned += 1
                    self.stats.forwards += 1
                    if self.telemetry.enabled:
                        self.telemetry.emit(
                            "fleet.job_dispatched", job_id=job.id,
                            worker_id=worker_id,
                            fingerprint=job.fingerprint,
                            remote_id=job.remote_id)
                return
            raise ProtocolError("no_workers",
                                "every live worker refused the job",
                                http_status=503)
        finally:
            with self._lock:
                self.stats.forward_seconds += time.perf_counter() - start

    def _redispatch(self, job: FleetJob) -> None:
        """Move a dead shard's unfinished job to a surviving shard."""
        with self._lock:
            job.redispatches += 1
            job.worker_id = None
            job.remote_id = None
            job.state = JobState.PENDING
            if job.redispatches > self.max_redispatch:
                self._finalize(job, JobState.FAILED,
                               {"code": "worker_failure",
                                "message": f"re-dispatched "
                                           f"{self.max_redispatch} times "
                                           f"without a surviving result"})
                return
            self.stats.redispatches += 1
            if self.telemetry.enabled:
                self.telemetry.emit("fleet.job_redispatched",
                                    job_id=job.id,
                                    fingerprint=job.fingerprint,
                                    redispatches=job.redispatches)
        try:
            self._dispatch(job)
        except ProtocolError:
            # no workers right now: the job stays pending/unassigned and
            # the monitor retries it each cycle (new workers may join).
            pass

    # ------------------------------------------------------------------
    # The monitor: heartbeat + state sync + result harvesting.
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.poll_once()
            except Exception:  # monitor must never die
                pass

    def poll_once(self) -> None:
        """One heartbeat/sync pass over every worker (also used by
        tests and the drain loop for deterministic stepping)."""
        start = time.perf_counter()
        with self._lock:
            handles = list(self.workers.values())
        for worker in handles:
            if not worker.alive:
                continue
            # snapshot what we own on the worker BEFORE asking for its
            # listing: a job forwarded after the snapshot cannot be
            # mistaken for one the worker forgot.
            with self._lock:
                owned = [job for job in self.jobs.values()
                         if job.worker_id == worker.id
                         and not job.terminal]
            try:
                listing = worker.client.jobs()
            except (ServeError, *_TRANSPORT_ERRORS):
                with self._lock:
                    worker.failures += 1
                    dead = worker.failures >= self.heartbeat_failures
                if dead:
                    self._mark_dead(worker)
                continue
            with self._lock:
                worker.failures = 0
            self._absorb_listing(worker, owned, listing)
        # jobs that lost their shard while the ring was empty
        with self._lock:
            stranded = [job for job in self.jobs.values()
                        if job.worker_id is None and not job.terminal
                        and not job.dispatching]
            have_workers = len(self.ring) > 0
        if have_workers:
            for job in stranded:
                try:
                    self._dispatch(job)
                except ProtocolError:
                    pass
        with self._lock:
            self.stats.poll_cycles += 1
            self.stats.poll_seconds += time.perf_counter() - start

    def _absorb_listing(self, worker: WorkerHandle,
                        owned: List[FleetJob],
                        listing: List[Dict[str, object]]) -> None:
        """Fold one worker's job listing into the fleet state; fetch
        results for newly-terminal jobs."""
        by_remote = {entry["job_id"]: entry for entry in listing}
        for job in owned:
            with self._lock:
                if job.terminal or job.worker_id != worker.id:
                    continue  # reconciled by another path meanwhile
            entry = by_remote.get(job.remote_id)
            if entry is None:
                # the worker restarted and forgot the job: re-dispatch
                self._redispatch(job)
                continue
            state = entry["state"]
            with self._lock:
                job.batch_width = int(entry.get("batch_width", 0))
                if state not in JobState.TERMINAL:
                    job.state = state
                    continue
            if state == JobState.DONE:
                try:
                    payload = worker.client.result(job.remote_id)
                except ServeError as exc:
                    self._finalize(job, JobState.FAILED,
                                   {"code": "worker_failure",
                                    "message": f"result fetch failed: "
                                               f"[{exc.code}] {exc}"})
                    continue
                except _TRANSPORT_ERRORS:
                    continue  # worker died mid-fetch; heartbeat decides
                with self._lock:
                    job.result = payload.get("result")
                self._finalize(job, JobState.DONE)
            else:
                error = entry.get("error") or {
                    "code": f"job_{state}", "message": state}
                self._finalize(job, state, dict(error))

    def _finalize(self, job: FleetJob, state: str,
                  error: Optional[Dict[str, object]] = None) -> None:
        with self._lock:
            if job.terminal:
                return
            job.state = state
            job.error = error
            job.finished_at = time.monotonic()
            if state == JobState.DONE:
                self.stats.jobs_completed += 1
            else:
                self.stats.jobs_failed += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "fleet.job_finished", job_id=job.id, state=state,
                    worker_id=job.worker_id,
                    redispatches=job.redispatches,
                    latency_seconds=job.finished_at - job.submitted_at)

    # ------------------------------------------------------------------
    # Client-facing views (protocol-compatible with a single server).
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> FleetJob:
        with self._lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise ProtocolError("unknown_job", f"no job {job_id!r}",
                                http_status=404)
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        return self._job(job_id).status()

    def job_listing(self, active: bool = False
                    ) -> List[Dict[str, object]]:
        with self._lock:
            jobs = sorted(self.jobs.values(), key=lambda job: job.id)
            if active:
                jobs = [job for job in jobs if not job.terminal]
            return [job.status() for job in jobs]

    def result(self, job_id: str, wait: bool = False,
               timeout: float = 60.0) -> Dict[str, object]:
        job = self._job(job_id)
        deadline = time.monotonic() + timeout
        while wait and not job.terminal:
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        return result_reply(job)

    def cancel(self, job_id: str) -> Dict[str, object]:
        job = self._job(job_id)
        if job.terminal:
            return job.status()
        with self._lock:
            worker = (self.workers.get(job.worker_id)
                      if job.worker_id else None)
        if worker is None or not worker.alive:
            self._finalize(job, JobState.CANCELLED,
                           {"code": "job_cancelled",
                            "message": "cancelled while unassigned"})
            return job.status()
        try:
            remote = worker.client.cancel(job.remote_id)
        except (ServeError, *_TRANSPORT_ERRORS):
            return job.status()  # the monitor will reconcile
        if remote.get("state") in JobState.TERMINAL:
            self._finalize(job, remote["state"],
                           dict(remote.get("error") or {
                               "code": "job_cancelled",
                               "message": "cancelled"}))
        return job.status()

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        with self._lock:
            live = [w.id for w in self.workers.values() if w.alive]
            dead = [w.id for w in self.workers.values() if not w.alive]
            inflight = sum(1 for job in self.jobs.values()
                           if not job.terminal)
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "role": "coordinator",
            "workers": len(live),
            "worker_ids": sorted(live),
            "dead_workers": sorted(dead),
            "queue_depth": inflight,
            "active_jobs": inflight,
            "max_inflight": self.max_inflight,
            "paused": False,
            "accepting": self._accepting,
        }

    def worker_listing(self) -> List[Dict[str, object]]:
        with self._lock:
            return [{"worker_id": w.id, "url": w.url, "alive": w.alive,
                     "failures": w.failures, "jobs_owned": w.jobs_owned}
                    for w in sorted(self.workers.values(),
                                    key=lambda w: w.id)]

    def metrics(self) -> Dict[str, object]:
        with self._lock:
            return metrics_document(self.telemetry,
                                    fleet_counters(self.stats),
                                    fleet_timers(self.stats))

    def events_jsonl(self) -> str:
        with self._lock:
            return self.telemetry.to_jsonl()

    def extra_route(self, method: str, head: str, arg: Optional[str],
                    body) -> Optional[Dict[str, object]]:
        """The coordinator's own routes: ``GET workers`` and the
        membership calls ``POST register`` / ``POST heartbeat/<id>``."""
        if method == "GET" and head == "workers":
            return {"workers": self.worker_listing(),
                    "protocol": PROTOCOL_VERSION}
        if method == "POST" and head == "register":
            payload = body()
            if not isinstance(payload, dict):
                raise ProtocolError("bad_json", "register body must be "
                                    "a JSON object")
            return self.register_worker(payload.get("worker_id"),
                                        payload.get("url"))
        if method == "POST" and head == "heartbeat" and arg:
            return self.heartbeat(arg)
        return None
