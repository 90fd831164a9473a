"""The batch coalescer and its warm workers.

The scheduler turns the job queue into *batches*: every claim takes the
best pending job plus all pending jobs that share its workload
fingerprint (same workload names, same simulator path), so the whole
group is served by **one** call into the matrix replay engine —
one trace per workload, one
:class:`~repro.system.colreplay.ColumnarContext` shared across every
configuration in the batch
(:func:`repro.system.sweep.evaluate_matrix`).  Fifty submitted
``evaluate`` jobs that differ only in configuration cost one sweep, not
fifty suites; that is the whole point of the service.

Execution happens on *warm workers*:

- ``workers == 0`` — the batch runs on a dedicated *single-thread*
  executor, inside the server process, sharing its in-memory sweep
  rows.  This is the mode tests and single-tenant use want.  One
  thread is load-bearing for correctness, not a tuning choice: the
  replay engine's per-workload caches (shared columnar contexts,
  translation timelines) are lock-free mutable state, and two batches
  of one workload walking the same cold translation timeline
  concurrently race on its probe bookkeeping and return subtly wrong
  metrics — third-decimal geomean drift, identical across every cell
  of the batch.  The byte-identity differential tests catch exactly
  this.
- ``workers >= 1`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  created once at service start.  Workers live across batches, so their
  sweep rows (trace plus columnar context) stay warm, and every worker
  pins the same resolved artifact-cache directory (``REPRO_CACHE_DIR``)
  so disk artifacts are shared between workers and across restarts.

One daemon claim thread blocks in :meth:`JobManager.claim_batch` and
hands each batch to the executor with ``submit``; the future's
done-callback records the outcome.  Both take the manager's lock for
every change to job state, :class:`ServeStats` and telemetry, so the
service has one lock and no event loop.

A batch that raises (worker crash, poisoned input) is retried per job
with exponential backoff via :meth:`JobManager.retry_later`; a broken
process pool is rebuilt before the retry lands.  Everything the
scheduler observes — batch widths, queue depth at dispatch, per-job
latency, retry counts, worker cache hit-rates — flows through the
``serve.*`` / ``sweep.*`` namespaces of :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (BrokenExecutor, Executor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor)
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.obs import Telemetry
from repro.serve.protocol import JobState
from repro.serve.queue import Job, JobManager, ServeStats

if TYPE_CHECKING:
    from repro.system.config import SystemSpec
    from repro.system.sweep import RowStore

#: a picklable description of one batch, consumed by :func:`run_batch`.
BatchSpec = Dict[str, object]

#: the sweep rows this worker keeps warm across batches: one per
#: workload the worker has served, for the worker process's lifetime.
_WORKER_ROWS: RowStore = {}


# ----------------------------------------------------------------------
# Worker side (runs in a pool process or the inline thread executor).
# ----------------------------------------------------------------------
def _init_worker(cache_root: Optional[str]) -> None:
    """Pool initializer: pin the artifact cache for the worker's life.

    The service resolves ``REPRO_CACHE_DIR`` once at startup; exporting
    the resolved path here means any library code that falls back to
    the default cache location agrees with the batch specs it receives.
    """
    if cache_root is not None:
        os.environ["REPRO_CACHE_DIR"] = cache_root


def _build_configs(specs: Sequence[SystemSpec]):
    return [spec.build() for spec in specs]


def run_batch(spec: BatchSpec) -> Dict[str, object]:
    """Execute one coalesced batch; pure function of its spec.

    Returns ``{"results": {job_id: payload}, "counters": {...}}`` where
    every payload is built from the same code paths the offline
    :mod:`repro.api` verbs use, so service results are byte-identical
    to offline calls (the differential tests enforce this).
    """
    from repro.system.artifacts import ArtifactCache
    from repro.system.sweep import evaluate_matrix, matrix_slice

    cache_root = spec.get("cache_root")
    cache = (ArtifactCache(Path(cache_root),
                           scope=spec.get("cache_scope"))
             if cache_root else None)
    results: Dict[str, object] = {}
    counters: Dict[str, int] = {}

    if spec["mode"] == "run":
        from repro.api import run

        for job_spec in spec["jobs"]:
            config = _build_configs(job_spec["configs"])[0]
            comparison = run(spec["target"], config=config)
            results[job_spec["id"]] = {
                "kind": "run",
                "target": spec["target"],
                "system": config.name,
                "speedup": comparison.speedup,
                "energy_ratio": comparison.energy_ratio,
                "plain_cycles": comparison.plain.stats.cycles,
                "accelerated_cycles":
                    comparison.accelerated.stats.cycles,
            }
        return {"results": results, "counters": counters}

    # matrix mode: one evaluate_matrix over the union of every job's
    # configurations serves the whole batch.
    names = spec["names"]
    union, seen = [], set()
    for job_spec in spec["jobs"]:
        for config in _build_configs(job_spec["configs"]):
            if config.name not in seen:
                seen.add(config.name)
                union.append(config)
    matrix = evaluate_matrix(union, names=names, cache=cache,
                             row_store=_WORKER_ROWS)
    for job_spec in spec["jobs"]:
        configs = _build_configs(job_spec["configs"])
        if job_spec["kind"] == "evaluate":
            suite = matrix.suite(configs[0].name)
            results[job_spec["id"]] = {
                "kind": "evaluate",
                "system": suite.system,
                "geomean_speedup": suite.geomean_speedup,
                "suite_json": suite.to_json(),
            }
        else:  # sweep
            sliced = matrix_slice(matrix, configs)
            results[job_spec["id"]] = {
                "kind": "sweep",
                "systems": [config.name for config in configs],
                "matrix_json": sliced.results_json(),
            }
    counters = dict(matrix.instrumentation.counters())
    return {"results": results, "counters": counters}


# ----------------------------------------------------------------------
# Scheduler (a claim thread plus the executor's done-callbacks).
# ----------------------------------------------------------------------
class BatchScheduler:
    """Claims batches from the queue and runs them on warm workers."""

    def __init__(self, manager: JobManager, telemetry: Telemetry,
                 workers: int = 0,
                 cache_root: Optional[Path] = None,
                 batch_window: float = 0.02,
                 scoped_cache: bool = False,
                 runner: Callable[[BatchSpec], Dict[str, object]]
                 = run_batch):
        self.manager = manager
        self.telemetry = telemetry
        self.workers = workers
        self.cache_root = (str(cache_root) if cache_root is not None
                           else None)
        #: fleet mode: scope artifact writes per workload fingerprint
        #: so shards sharing one REPRO_CACHE_DIR never contend on the
        #: same directories.
        self.scoped_cache = scoped_cache
        self.batch_window = batch_window
        self.runner = runner
        self._pool: Optional[Executor] = None
        self._thread: Optional[threading.Thread] = None
        #: batches handed to the executor and not yet recorded.
        self._inflight = 0
        #: set by :meth:`stop`: a batch ending later records nothing.
        self._orphaned = False

    @property
    def stats(self) -> ServeStats:
        return self.manager.stats

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        assert self._thread is None, "scheduler already started"
        self._pool = self._make_pool()
        self._thread = threading.Thread(target=self._claim_loop,
                                        name="repro-serve-claim",
                                        daemon=True)
        self._thread.start()

    def _make_pool(self) -> Executor:
        if self.workers > 0:
            return ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(self.cache_root,))
        # in-process mode MUST be a single thread: concurrent batches
        # would race on the replay engine's shared per-workload caches
        # (see the module docstring).
        return ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="repro-batch")

    def stop(self, wait: bool = True, timeout: float = 60.0) -> None:
        """Stop claiming and shut the executor down.

        With ``wait``, batches already handed to the executor finish
        and record their results first.  A batch still running after
        that (every one, without ``wait``) is orphaned: its result is
        never recorded.
        """
        lock = self.manager.lock
        self.manager.close()
        if self._thread is not None:
            self._thread.join(timeout)
        with lock:
            idle = wait and lock.wait_for(lambda: not self._inflight,
                                          timeout)
            self._orphaned = True
        if self._pool is not None:
            self._pool.shutdown(wait=idle, cancel_futures=True)

    # ------------------------------------------------------------------
    # The claim thread and the batch callbacks.
    # ------------------------------------------------------------------
    def _claim_loop(self) -> None:
        while (batch := self.manager.claim_batch(self.batch_window)) \
                is not None:
            if batch:
                self._dispatch(batch)

    def _batch_spec(self, batch: List[Job]) -> BatchSpec:
        lead = batch[0].request
        spec: BatchSpec = {
            "mode": "run" if lead.kind == "run" else "matrix",
            "cache_root": self.cache_root,
            "cache_scope": (lead.fingerprint if self.scoped_cache
                            and self.cache_root else None),
            "jobs": [{"id": job.id, "kind": job.request.kind,
                      "configs": list(job.request.configs)}
                     for job in batch],
        }
        if lead.kind == "run":
            spec["target"] = lead.target
        else:
            spec["names"] = (list(lead.names)
                             if lead.names is not None else None)
        return spec

    def _dispatch(self, batch: List[Job]) -> None:
        spec = self._batch_spec(batch)
        with self.manager.lock:
            self._inflight += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "serve.batch_dispatched",
                    fingerprint=batch[0].request.fingerprint,
                    width=len(batch), queue_depth=self.manager.depth)
        start = time.monotonic()
        try:
            future = self._pool.submit(self.runner, spec)
        except BrokenExecutor:
            # a pool process died under an earlier batch (which is being
            # retried): rebuild the pool before this batch runs.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = self._make_pool()
            future = self._pool.submit(self.runner, spec)
        future.add_done_callback(
            lambda done: self._record(batch, start, done))

    def _record(self, batch: List[Job], start: float,
                future: Future) -> None:
        """Fold a finished batch into its jobs: results, or a retry
        with backoff per job when the batch raised."""
        with self.manager.lock:
            self._inflight -= 1
            self.manager.lock.notify_all()
            if self._orphaned:
                return
            self.stats.exec_seconds += time.monotonic() - start
            exc = future.exception()
            if exc is not None:  # worker crash or poisoned batch
                for job in batch:
                    if not self.manager.retry_later(job):
                        self.manager.fail(
                            job, f"{type(exc).__name__}: {exc}")
                    if job.state in JobState.TERMINAL:
                        self._emit_finished(job)
                    elif self.telemetry.enabled:
                        self.telemetry.emit("serve.job_retried",
                                            job_id=job.id,
                                            attempts=job.attempts)
                return
            payload = future.result()
            results = payload.get("results", {})
            self.telemetry.count_many(payload.get("counters", {}))
            for job in batch:
                result = results.get(job.id)
                if result is None:
                    self.manager.fail(job, "worker returned no result "
                                           "for this job")
                else:
                    self.manager.finish(job, result)
                self._emit_finished(job)

    def _emit_finished(self, job: Job) -> None:
        if not self.telemetry.enabled:
            return
        latency = (job.finished_at or 0.0) - job.submitted_at
        self.telemetry.emit("serve.job_finished", job_id=job.id,
                            state=job.state, attempts=job.attempts,
                            batch_width=job.batch_width,
                            latency_seconds=latency)
