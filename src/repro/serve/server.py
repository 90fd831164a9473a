"""The long-lived evaluation service.

:class:`EvalService` owns the event loop (run on a dedicated daemon
thread), the :class:`~repro.serve.queue.JobManager`, the
:class:`~repro.serve.scheduler.BatchScheduler` and the service
telemetry; its public methods are thread-safe bridges that the HTTP
front end (:mod:`repro.serve.frontend`, shared with the fleet) and
tests call from any thread.  :func:`serve_forever` is the CLI entry
point.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.obs import Telemetry
from repro.obs.schema import serve_counters, serve_timers
from repro.serve.frontend import start_http, wait_for_shutdown
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobState,
    metrics_document,
    result_reply,
    validate_submission,
)
from repro.serve.queue import JobManager, ServeStats
from repro.serve.scheduler import BatchScheduler, run_batch

#: ceiling on any one thread-safe bridge call into the loop.
_BRIDGE_TIMEOUT = 60.0


class EvalService:
    """Queue + scheduler + telemetry behind a thread-safe facade."""

    def __init__(self, workers: int = 0,
                 cache_root: Optional[Path] = None,
                 capacity: int = 256, max_retries: int = 2,
                 backoff_base: float = 0.05,
                 batch_window: float = 0.02,
                 scoped_cache: bool = False,
                 telemetry: Optional[Telemetry] = None,
                 runner=run_batch):
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.stats = ServeStats()
        self.manager = JobManager(capacity=capacity,
                                  max_retries=max_retries,
                                  backoff_base=backoff_base,
                                  stats=self.stats)
        self.scheduler = BatchScheduler(
            self.manager, self.telemetry, workers=workers,
            cache_root=cache_root, batch_window=batch_window,
            scoped_cache=scoped_cache, runner=runner)
        self.cache_root = cache_root
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        assert self._thread is None, "service already started"
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-serve-loop",
                                        daemon=True)
        self._thread.start()
        self._started.wait(_BRIDGE_TIMEOUT)
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot():
            self.manager.bind()
            self.scheduler.start()
            self._started.set()

        loop.create_task(boot())
        try:
            loop.run_forever()
        finally:
            # a crash-stop leaves the claim loop and in-flight dispatches
            # pending: cancel and reap them (a cancelled dispatch records
            # nothing), then drop the pool without waiting for its work.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
            self.scheduler.release_pool()
            loop.close()

    def stop(self, drain: bool = True,
             timeout: float = _BRIDGE_TIMEOUT) -> Dict[str, object]:
        """Stop the service; with ``drain`` (the default) refuse new
        submissions and wait for every queued job to reach a terminal
        state first, so a clean shutdown never strands work."""
        if self._stopped:
            return {"drained": True, "active": 0}
        summary = self._call(self._shutdown(drain), timeout=timeout)
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout)
        self._stopped = True
        return summary

    def kill(self) -> None:
        """Crash-stop the service: drop the request bridge and stop the
        loop WITHOUT draining or waiting for in-flight batches.

        This models a worker dying mid-batch (the SIGKILL analogue of
        :meth:`stop`): every request from the moment of the call fails —
        including ones arriving over already-established keep-alive
        connections, which a bare ``HTTPServer.shutdown()`` keeps
        serving — so a fleet coordinator's heartbeat sees the worker go
        dark immediately instead of after in-flight work unwinds.  Any
        batch still running on the executor is orphaned: its result is
        never recorded and never observable.  The loop's tasks are
        cancelled and reaped before it closes, so none is left pending.
        Used by failover tests.
        """
        if self._stopped or self._loop is None:
            return
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._stopped = True

    def shutdown(self, options: Mapping[str, object]) -> Dict[str, object]:
        """The ``shutdown`` route: :meth:`stop`, draining unless the
        body says ``{"drain": false}``."""
        return self.stop(drain=bool(options.get("drain", True)))

    async def _shutdown(self, drain: bool) -> Dict[str, object]:
        self.manager.stop_accepting()
        if drain:
            await self.manager.resume()  # a paused queue cannot drain
            await self.manager.wait_drained()
            await self.scheduler.wait_idle()
        await self.scheduler.stop()
        return {"drained": drain, "active": self.manager.active,
                "jobs": len(self.manager.jobs)}

    # ------------------------------------------------------------------
    # The thread-safe bridge.
    # ------------------------------------------------------------------
    def _call(self, coro, timeout: float = _BRIDGE_TIMEOUT):
        if self._loop is None:
            coro.close()  # never scheduled; avoid the unawaited warning
            raise RuntimeError("service not started")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def submit(self, payload: object) -> Dict[str, object]:
        """Validate and enqueue one job spec; returns its status."""
        request = validate_submission(payload)
        return self._call(self._submit(request))

    async def _submit(self, request) -> Dict[str, object]:
        job = await self.manager.submit(request)
        if self.telemetry.enabled:
            self.telemetry.emit("serve.job_submitted", job_id=job.id,
                                kind=request.kind,
                                fingerprint=request.fingerprint,
                                queue_depth=self.manager.depth)
        return job.status()

    def status(self, job_id: str) -> Dict[str, object]:
        return self._call(self._status(job_id))

    async def _status(self, job_id: str) -> Dict[str, object]:
        return self.manager.job(job_id).status()

    def job_listing(self, active: bool = False
                    ) -> List[Dict[str, object]]:
        """Every job's status by id; ``active`` drops terminal jobs."""
        return self._call(self._job_listing(active))

    async def _job_listing(self, active: bool
                           ) -> List[Dict[str, object]]:
        return [job.status() for _, job in
                sorted(self.manager.jobs.items())
                if not (active and job.state in JobState.TERMINAL)]

    def result(self, job_id: str, wait: bool = False,
               timeout: float = _BRIDGE_TIMEOUT) -> Dict[str, object]:
        """A finished job's result payload.

        Raises :class:`~repro.serve.protocol.ProtocolError` (``not_finished`` /
        ``job_failed`` / ``job_cancelled`` / ``job_timeout``) when no
        result exists; ``wait`` blocks until the job is terminal.
        """
        return self._call(self._result(job_id, wait), timeout=timeout)

    async def _result(self, job_id: str,
                      wait: bool) -> Dict[str, object]:
        job = self.manager.job(job_id)
        if wait:
            await self.manager.wait_job(job)
        return result_reply(job)

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._call(self._cancel(job_id))

    async def _cancel(self, job_id: str) -> Dict[str, object]:
        job = await self.manager.cancel(job_id)
        return job.status()

    def pause(self) -> None:
        self._call(self.manager.pause())

    def resume(self) -> None:
        self._call(self.manager.resume())

    def extra_route(self, method: str, head: str, arg: Optional[str],
                    body) -> Optional[Dict[str, object]]:
        """The service's own routes: ``POST pause`` / ``POST resume``
        gate the scheduler and reply with :meth:`healthz`."""
        if method == "POST" and head in ("pause", "resume"):
            getattr(self, head)()
            return self.healthz()
        return None

    def wait_drained(self, timeout: float = _BRIDGE_TIMEOUT) -> None:
        self._call(self.manager.wait_drained(), timeout=timeout)

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": self.manager.depth,
            "active_jobs": self.manager.active,
            "paused": self.manager.paused,
            "workers": self.scheduler.workers,
        }

    def metrics(self) -> Dict[str, object]:
        """Counters and timers: the service's ``serve.*`` stats merged
        over the telemetry absorbed from workers (``sweep.*`` etc.).

        Routed through the event loop while the service runs so the
        export never races ongoing instrumentation.
        """
        return self._on_loop_if_running(self._build_metrics)

    def _build_metrics(self) -> Dict[str, object]:
        document = metrics_document(self.telemetry,
                                    serve_counters(self.stats),
                                    serve_timers(self.stats))
        document["mean_batch_width"] = self.stats.mean_batch_width
        return document

    def events_jsonl(self) -> str:
        """The telemetry event stream as schema-valid JSONL text."""
        return self._on_loop_if_running(self.telemetry.to_jsonl)

    def _on_loop_if_running(self, fn):
        if self._loop is not None and not self._stopped:
            return self._call(self._on_loop(fn))
        return fn()

    async def _on_loop(self, fn):
        return fn()


def serve_forever(host: str = "127.0.0.1", port: int = 8350,
                  **service_kwargs) -> int:
    """Run the service until interrupted or shut down over HTTP."""
    service = EvalService(**service_kwargs).start()
    server, thread = start_http(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: listening on http://{bound_host}:{bound_port} "
          f"(workers={service.scheduler.workers}, "
          f"cache={service.cache_root or 'disabled'})")
    wait_for_shutdown(server, thread, "serve")
    return 0
