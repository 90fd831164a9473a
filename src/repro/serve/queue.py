"""The job manager: a bounded, prioritised, deadline-aware queue.

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
exponential backoff up to ``max_retries`` times per job: the job goes
straight back into the queue with a not-before time that
:meth:`JobManager.claim_batch` honours, so a backoff holds no thread or
timer.  Beyond the retries the job fails with a structured
``worker_failure`` error.

One :class:`threading.Condition`, :attr:`JobManager.lock`, guards the
jobs, the queue and the :class:`ServeStats`; every method takes it, and
blocking calls (:meth:`~JobManager.claim_batch`,
:meth:`~JobManager.wait_job`, :meth:`~JobManager.wait_drained`) wait on
it.  The lock is re-entrant, so the scheduler and the service hold it
across a manager call and the telemetry that call feeds.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.serve.protocol import JobRequest, JobState, ProtocolError

#: the status error code of a job that ended in each non-done state.
_STATE_ERRORS = {JobState.CANCELLED: "job_cancelled",
                 JobState.TIMEOUT: "job_timeout",
                 JobState.FAILED: "worker_failure"}


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
    #: a retried job is not claimed before this (monotonic) time.
    not_before: float = 0.0
    attempts: int = 0
    cancel_requested: bool = False
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    #: width of the batch this job last ran in (observability only).
    batch_width: int = 0

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


class JobManager:
    """Bounded queue of jobs with priorities and deadlines."""

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
        #: every pending job, by id; a job is here iff it is pending.
        self._queue: Dict[str, Job] = {}
        self.lock = threading.Condition()
        self._seq = itertools.count(1)
        self._paused = False
        self._accepting = True
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending jobs currently queued."""
        return len(self._queue)

    @property
    def active(self) -> int:
        """Jobs not yet in a terminal state (pending + running)."""
        with self.lock:
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
    def submit(self, request: JobRequest) -> Job:
        with self.lock:
            if not self._accepting:
                self.stats.jobs_rejected += 1
                raise ProtocolError("shutting_down",
                                    "service is draining; submission "
                                    "rejected", http_status=503)
            if len(self._queue) >= self.capacity:
                self.stats.jobs_rejected += 1
                raise ProtocolError(
                    "queue_full",
                    f"queue is full ({self.capacity} pending jobs)",
                    http_status=429)
            seq = next(self._seq)
            job = Job(id=f"j{seq:06d}", request=request, seq=seq,
                      submitted_at=time.monotonic())
            if request.timeout is not None:
                job.deadline = job.submitted_at + request.timeout
            self.jobs[job.id] = job
            self._queue[job.id] = job
            self.stats.jobs_submitted += 1
            self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                             len(self._queue))
            self.lock.notify_all()
            return job

    def cancel(self, job_id: str) -> Job:
        with self.lock:
            job = self.job(job_id)
            if job.state == JobState.PENDING:
                del self._queue[job.id]
                self._finalize(job, JobState.CANCELLED,
                               "cancelled while pending")
            elif job.state == JobState.RUNNING:
                # cooperative: the batch result is discarded on return
                job.cancel_requested = True
            return job

    # ------------------------------------------------------------------
    # Scheduler side: claiming, finishing, retrying.
    # ------------------------------------------------------------------
    def claim_batch(self, window: float = 0.0) -> Optional[List[Job]]:
        """The next batch: the best pending job plus every pending job
        sharing its fingerprint (claimed in submission order).

        Blocks until a claimable job exists and the queue is not
        paused.  ``window`` optionally sleeps once after the first job
        becomes available so near-simultaneous submissions coalesce.
        Deadline-expired pending jobs are finalised (``timeout``) and
        never returned, so the batch may be empty; ``None`` means the
        manager was closed.
        """
        with self.lock:
            while self._paused or not self._ready(now := time.monotonic()):
                if self._closed:
                    return None
                # wake when the first backoff ends, if a job is in one
                self.lock.wait(None if self._paused else min(
                    (job.not_before - now for job in self._queue.values()),
                    default=None))
        if window > 0:
            time.sleep(window)
        with self.lock:
            if self._closed:
                return None
            now = time.monotonic()
            ready = self._ready(now)
            if not ready:
                return []
            lead = min(ready, key=lambda job: (-job.request.priority,
                                               job.seq))
            batch = sorted((job for job in ready if job.request.fingerprint
                            == lead.request.fingerprint),
                           key=lambda job: job.seq)
            for job in batch:
                del self._queue[job.id]
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
        with self.lock:
            if job.cancel_requested:
                self._finalize(job, JobState.CANCELLED,
                               "cancelled while running")
            elif (job.deadline is not None
                  and time.monotonic() > job.deadline):
                self._finalize(job, JobState.TIMEOUT,
                               "deadline expired during execution")
            else:
                job.result = result
                self._finalize(job, JobState.DONE)

    def fail(self, job: Job, message: str) -> None:
        with self.lock:
            self._finalize(job, JobState.FAILED, message,
                           attempts=job.attempts)

    def retry_later(self, job: Job) -> bool:
        """Requeue ``job`` behind its backoff; False once retries are
        exhausted."""
        with self.lock:
            if job.attempts > self.max_retries:
                return False
            if job.cancel_requested:
                self._finalize(job, JobState.CANCELLED,
                               "cancelled while running")
                return True
            self.stats.retries += 1
            job.state = JobState.PENDING
            job.not_before = (time.monotonic() + self.backoff_base
                              * 2 ** (job.attempts - 1))
            self._queue[job.id] = job
            self.lock.notify_all()
            return True

    # ------------------------------------------------------------------
    # Draining.
    # ------------------------------------------------------------------
    def stop_accepting(self) -> None:
        with self.lock:
            self._accepting = False

    def close(self) -> None:
        """Refuse submissions for good, end :meth:`claim_batch` and wake
        every waiter."""
        with self.lock:
            self._accepting = False
            self._closed = True
            self.lock.notify_all()

    def pause(self) -> None:
        with self.lock:
            self._paused = True

    def resume(self) -> None:
        with self.lock:
            self._paused = False
            self.lock.notify_all()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job reached a terminal state (or
        the manager closed); False if ``timeout`` ran out first."""
        with self.lock:
            return self.lock.wait_for(
                lambda: self._closed or not self.active, timeout)

    def wait_job(self, job: Job, timeout: Optional[float] = None) -> Job:
        """Block until ``job`` reaches a terminal state, the manager
        closes or ``timeout`` runs out."""
        with self.lock:
            self.lock.wait_for(lambda: self._closed
                               or job.state in JobState.TERMINAL,
                               timeout)
            return job

    # ------------------------------------------------------------------
    # Internals (called with the lock held).
    # ------------------------------------------------------------------
    def _ready(self, now: float) -> List[Job]:
        """Pending jobs past their backoff, after timing out every
        pending job whose deadline expired."""
        ready = []
        for job in list(self._queue.values()):
            if job.deadline is not None and now > job.deadline:
                del self._queue[job.id]
                self._finalize(job, JobState.TIMEOUT,
                               "deadline expired while queued")
            elif job.not_before <= now:
                ready.append(job)
        return ready

    def _finalize(self, job: Job, state: str, message: str = "",
                  **details: object) -> None:
        """End ``job`` in ``state``; any state but ``done`` carries a
        status error with ``message``."""
        job.state = state
        if state != JobState.DONE:
            job.error = {"code": _STATE_ERRORS[state], "message": message,
                         **details}
        job.finished_at = time.monotonic()
        self.stats.observe_latency(job.finished_at - job.submitted_at)
        if state == JobState.DONE:
            self.stats.jobs_completed += 1
        elif state == JobState.FAILED:
            self.stats.jobs_failed += 1
        elif state == JobState.CANCELLED:
            self.stats.jobs_cancelled += 1
        elif state == JobState.TIMEOUT:
            self.stats.jobs_timed_out += 1
        self.lock.notify_all()
