"""The asyncio job manager: a bounded, prioritised, deadline-aware queue.

One :class:`JobManager` owns every job's lifecycle.  Submissions enter a
bounded priority queue (higher ``priority`` first, FIFO within a
priority); the scheduler claims *batches* — the best pending job plus
every other pending job with the same workload fingerprint — so one
trace and one columnar context serve the whole group
(:mod:`repro.serve.scheduler`).

Deadlines are cooperative: a job's deadline is checked when the
scheduler claims from the queue and again when its batch completes, so
an expired job is reported as ``timeout`` without interrupting a worker
mid-replay.  Cancellation works the same way — pending jobs cancel
immediately, running jobs have their result discarded on completion.

Worker failures (a crashed process, a poisoned batch) are retried with
exponential backoff up to ``max_retries`` times per job; beyond that
the job fails with a structured ``worker_failure`` error.

All methods are coroutines and must run on the manager's event loop;
:class:`repro.serve.server.EvalService` provides the thread-safe
bridges the HTTP handlers use.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serve.protocol import JobRequest, JobState, ProtocolError


@dataclass
class ServeStats:
    """Service-level counters, the carrier behind ``serve.*`` telemetry.

    Latencies (submit -> terminal state) are histogrammed into fixed
    buckets so the closed counter schema (:mod:`repro.obs.schema`) can
    name every exported quantity.
    """

    jobs_submitted: int = 0
    jobs_rejected: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_timed_out: int = 0
    batches: int = 0
    batched_jobs: int = 0
    max_batch_width: int = 0
    retries: int = 0
    max_queue_depth: int = 0
    latency_le_10ms: int = 0
    latency_le_100ms: int = 0
    latency_le_1s: int = 0
    latency_le_10s: int = 0
    latency_over_10s: int = 0
    #: summed job wait (submit -> claim) and batch execution time.
    queue_seconds: float = 0.0
    exec_seconds: float = 0.0

    def observe_latency(self, seconds: float) -> None:
        if seconds <= 0.010:
            self.latency_le_10ms += 1
        elif seconds <= 0.100:
            self.latency_le_100ms += 1
        elif seconds <= 1.0:
            self.latency_le_1s += 1
        elif seconds <= 10.0:
            self.latency_le_10s += 1
        else:
            self.latency_over_10s += 1

    @property
    def mean_batch_width(self) -> float:
        return self.batched_jobs / self.batches if self.batches else 0.0


@dataclass
class Job:
    """One submitted job and everything that happened to it."""

    id: str
    request: JobRequest
    seq: int
    state: str = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    deadline: Optional[float] = None
    attempts: int = 0
    cancel_requested: bool = False
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    #: width of the batch this job last ran in (observability only).
    batch_width: int = 0
    waiters: List[asyncio.Event] = field(default_factory=list)

    def status(self) -> Dict[str, object]:
        """The wire-level status object (JSON scalars only)."""
        payload: Dict[str, object] = {
            "job_id": self.id,
            "kind": self.request.kind,
            "state": self.state,
            "priority": self.request.priority,
            "fingerprint": self.request.fingerprint,
            "attempts": self.attempts,
            "batch_width": self.batch_width,
        }
        if self.error is not None:
            payload["error"] = dict(self.error)
        return payload

    def _wake(self) -> None:
        for event in self.waiters:
            event.set()
        self.waiters.clear()


class JobManager:
    """Bounded asyncio queue of jobs with priorities and deadlines."""

    def __init__(self, capacity: int = 256, max_retries: int = 2,
                 backoff_base: float = 0.05, stats: Optional[ServeStats]
                 = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.stats = stats if stats is not None else ServeStats()
        self.jobs: Dict[str, Job] = {}
        self._heap: List[tuple] = []  # (-priority, seq, job_id)
        self._cond: Optional[asyncio.Condition] = None
        self._seq = itertools.count(1)
        self._paused = False
        self._accepting = True
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Loop plumbing.
    # ------------------------------------------------------------------
    def bind(self) -> None:
        """Attach to the running event loop (call once, from the loop)."""
        self._loop = asyncio.get_running_loop()
        self._cond = asyncio.Condition()

    def _now(self) -> float:
        assert self._loop is not None, "JobManager.bind() not called"
        return self._loop.time()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending jobs currently queued."""
        return len(self._heap)

    @property
    def active(self) -> int:
        """Jobs not yet in a terminal state (pending + running)."""
        return sum(1 for job in self.jobs.values()
                   if job.state not in JobState.TERMINAL)

    @property
    def paused(self) -> bool:
        return self._paused

    def job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ProtocolError("unknown_job",
                                f"no job {job_id!r}", http_status=404)
        return job

    # ------------------------------------------------------------------
    # Submission and cancellation.
    # ------------------------------------------------------------------
    async def submit(self, request: JobRequest) -> Job:
        if not self._accepting:
            self.stats.jobs_rejected += 1
            raise ProtocolError("shutting_down",
                                "service is draining; submission "
                                "rejected", http_status=503)
        if self.depth >= self.capacity:
            self.stats.jobs_rejected += 1
            raise ProtocolError(
                "queue_full",
                f"queue is full ({self.capacity} pending jobs)",
                http_status=429)
        seq = next(self._seq)
        job = Job(id=f"j{seq:06d}", request=request, seq=seq,
                  submitted_at=self._now())
        if request.timeout is not None:
            job.deadline = job.submitted_at + request.timeout
        self.jobs[job.id] = job
        self._push(job)
        self.stats.jobs_submitted += 1
        self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                         self.depth)
        async with self._cond:
            self._cond.notify_all()
        return job

    async def cancel(self, job_id: str) -> Job:
        job = self.job(job_id)
        if job.state == JobState.PENDING:
            self._heap = [entry for entry in self._heap
                          if entry[2] != job.id]
            heapq.heapify(self._heap)
            self._finalize(job, JobState.CANCELLED,
                           error={"code": "job_cancelled",
                                  "message": "cancelled while pending"})
        elif job.state == JobState.RUNNING:
            # cooperative: the batch result will be discarded on return
            job.cancel_requested = True
        return job

    # ------------------------------------------------------------------
    # Scheduler side: claiming, finishing, retrying.
    # ------------------------------------------------------------------
    async def claim_batch(self, window: float = 0.0) -> List[Job]:
        """The next batch: the best pending job plus every pending job
        sharing its fingerprint (claimed in submission order).

        Blocks until a claimable job exists and the queue is not
        paused.  ``window`` optionally sleeps once after the first job
        becomes available so near-simultaneous submissions coalesce.
        Deadline-expired pending jobs are finalised (``timeout``) and
        never returned.
        """
        async with self._cond:
            while True:
                if not self._paused:
                    self._expire_pending()
                    if self._heap:
                        break
                await self._cond.wait()
        if window > 0:
            await asyncio.sleep(window)
            async with self._cond:
                self._expire_pending()
                if not self._heap:
                    return []
        lead = self._pop()
        fingerprint = lead.request.fingerprint
        batch = [lead]
        batch.extend(self._pop_matching(fingerprint))
        batch.sort(key=lambda job: job.seq)
        now = self._now()
        for job in batch:
            job.state = JobState.RUNNING
            job.started_at = now
            job.attempts += 1
            job.batch_width = len(batch)
            self.stats.queue_seconds += now - job.submitted_at
        self.stats.batches += 1
        self.stats.batched_jobs += len(batch)
        self.stats.max_batch_width = max(self.stats.max_batch_width,
                                         len(batch))
        return batch

    def finish(self, job: Job, result: Dict[str, object]) -> None:
        """Record a computed result, honouring cancel/deadline flags."""
        if job.cancel_requested:
            self._finalize(job, JobState.CANCELLED,
                           error={"code": "job_cancelled",
                                  "message": "cancelled while running"})
        elif job.deadline is not None and self._now() > job.deadline:
            self._finalize(job, JobState.TIMEOUT,
                           error={"code": "job_timeout",
                                  "message": "deadline expired during "
                                             "execution"})
        else:
            job.result = result
            self._finalize(job, JobState.DONE)

    def fail(self, job: Job, message: str) -> None:
        self._finalize(job, JobState.FAILED,
                       error={"code": "worker_failure",
                              "message": message,
                              "attempts": job.attempts})

    async def retry_later(self, job: Job) -> bool:
        """Requeue ``job`` after backoff; False once retries exhausted."""
        if job.attempts > self.max_retries:
            return False
        if job.cancel_requested:
            self._finalize(job, JobState.CANCELLED,
                           error={"code": "job_cancelled",
                                  "message": "cancelled while running"})
            return True
        self.stats.retries += 1
        delay = self.backoff_base * (2 ** (job.attempts - 1))
        asyncio.get_running_loop().create_task(
            self._requeue_after(job, delay))
        return True

    async def _requeue_after(self, job: Job, delay: float) -> None:
        await asyncio.sleep(delay)
        job.state = JobState.PENDING
        self._push(job)
        async with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Draining.
    # ------------------------------------------------------------------
    def stop_accepting(self) -> None:
        self._accepting = False

    async def pause(self) -> None:
        self._paused = True

    async def resume(self) -> None:
        self._paused = False
        async with self._cond:
            self._cond.notify_all()

    async def wait_drained(self, poll: float = 0.01) -> None:
        """Return once every submitted job reached a terminal state."""
        while self.active:
            await asyncio.sleep(poll)

    async def wait_job(self, job: Job) -> Job:
        """Block until ``job`` reaches a terminal state."""
        if job.state in JobState.TERMINAL:
            return job
        event = asyncio.Event()
        job.waiters.append(event)
        if job.state in JobState.TERMINAL:  # finalized before append
            return job
        await event.wait()
        return job

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap,
                       (-job.request.priority, job.seq, job.id))

    def _pop(self) -> Job:
        _, _, job_id = heapq.heappop(self._heap)
        return self.jobs[job_id]

    def _pop_matching(self, fingerprint: str) -> List[Job]:
        matched, kept = [], []
        for entry in self._heap:
            job = self.jobs[entry[2]]
            if job.request.fingerprint == fingerprint:
                matched.append(job)
            else:
                kept.append(entry)
        if matched:
            self._heap = kept
            heapq.heapify(self._heap)
        return matched

    def _expire_pending(self) -> None:
        now = self._now()
        expired = [entry for entry in self._heap
                   if (job := self.jobs[entry[2]]).deadline is not None
                   and now > job.deadline]
        if not expired:
            return
        keep = [entry for entry in self._heap if entry not in expired]
        self._heap = keep
        heapq.heapify(self._heap)
        for entry in expired:
            job = self.jobs[entry[2]]
            self._finalize(job, JobState.TIMEOUT,
                           error={"code": "job_timeout",
                                  "message": "deadline expired while "
                                             "queued"})

    def _finalize(self, job: Job, state: str,
                  error: Optional[Dict[str, object]] = None) -> None:
        job.state = state
        job.error = error
        job.finished_at = self._now()
        self.stats.observe_latency(job.finished_at - job.submitted_at)
        if state == JobState.DONE:
            self.stats.jobs_completed += 1
        elif state == JobState.FAILED:
            self.stats.jobs_failed += 1
        elif state == JobState.CANCELLED:
            self.stats.jobs_cancelled += 1
        elif state == JobState.TIMEOUT:
            self.stats.jobs_timed_out += 1
        job._wake()
