"""The long-lived evaluation service.

:class:`EvalService` owns the :class:`~repro.serve.queue.JobManager`,
the :class:`~repro.serve.scheduler.BatchScheduler` and the service
telemetry.  Its public methods are the routes the HTTP front end
(:mod:`repro.serve.frontend`, shared with the fleet) and tests call
from any thread; each one runs under the manager's lock, the one lock
of the service, like the fleet coordinator's.  :func:`serve_forever` is
the CLI entry point.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

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


class EvalService:
    """Queue + scheduler + telemetry behind one lock."""

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
        self._stopped = False
        self._killed = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        self.scheduler.start()
        return self

    def stop(self, drain: bool = True,
             timeout: float = 60.0) -> Dict[str, object]:
        """Stop the service; with ``drain`` (the default) refuse new
        submissions and wait for every queued job to reach a terminal
        state first, so a clean shutdown never strands work (the
        summary's ``drained`` is False if ``timeout`` ran out)."""
        with self.manager.lock:
            if self._stopped:
                return {"drained": True, "active": 0}
            self._stopped = True
        self.manager.stop_accepting()
        if drain:
            self.manager.resume()  # a paused queue cannot drain
            drain = self.manager.wait_drained(timeout)
        self.scheduler.stop(timeout=timeout)
        return {"drained": drain, "active": self.manager.active,
                "jobs": len(self.manager.jobs)}

    def kill(self) -> None:
        """Crash-stop the service WITHOUT draining or waiting for
        in-flight batches.

        This models a worker dying mid-batch (the SIGKILL analogue of
        :meth:`stop`): every request from the moment of the call fails —
        including ones arriving over already-established keep-alive
        connections, which a bare ``HTTPServer.shutdown()`` keeps
        serving — so a fleet coordinator's heartbeat sees the worker go
        dark immediately instead of after in-flight work unwinds.  Any
        batch still running on the executor is orphaned: its result is
        never recorded and never observable.  Used by failover tests.
        """
        with self.manager.lock:
            if self._stopped:
                return
            self._stopped = self._killed = True
        self.scheduler.stop(wait=False, timeout=5.0)

    def shutdown(self, options: Mapping[str, object]) -> Dict[str, object]:
        """The ``shutdown`` route: :meth:`stop`, draining unless the
        body says ``{"drain": false}``."""
        with self._guard():
            drain = bool(options.get("drain", True))
        return self.stop(drain=drain)

    @contextmanager
    def _guard(self) -> Iterator[None]:
        """Hold the manager's lock for one request; a killed service
        answers none (the front end drops the connection)."""
        with self.manager.lock:
            if self._killed:
                raise RuntimeError("service was killed")
            yield

    # ------------------------------------------------------------------
    # Jobs.
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Dict[str, object]:
        """Validate and enqueue one job spec; returns its status."""
        with self._guard():
            request = validate_submission(payload)
            job = self.manager.submit(request)
            if self.telemetry.enabled:
                self.telemetry.emit("serve.job_submitted", job_id=job.id,
                                    kind=request.kind,
                                    fingerprint=request.fingerprint,
                                    queue_depth=self.manager.depth)
            return job.status()

    def status(self, job_id: str) -> Dict[str, object]:
        with self._guard():
            return self.manager.job(job_id).status()

    def job_listing(self, active: bool = False
                    ) -> List[Dict[str, object]]:
        """Every job's status by id; ``active`` drops terminal jobs."""
        with self._guard():
            return [job.status() for _, job in
                    sorted(self.manager.jobs.items())
                    if not (active and job.state in JobState.TERMINAL)]

    def result(self, job_id: str, wait: bool = False,
               timeout: float = 60.0) -> Dict[str, object]:
        """A finished job's result payload.

        Raises :class:`~repro.serve.protocol.ProtocolError` (``not_finished`` /
        ``job_failed`` / ``job_cancelled`` / ``job_timeout``) when no
        result exists; ``wait`` blocks until the job is terminal or
        ``timeout`` runs out.
        """
        with self._guard():
            job = self.manager.job(job_id)
            if wait:
                self.manager.wait_job(job, timeout)
            return result_reply(job)

    def cancel(self, job_id: str) -> Dict[str, object]:
        with self._guard():
            return self.manager.cancel(job_id).status()

    def pause(self) -> None:
        with self._guard():
            self.manager.pause()

    def resume(self) -> None:
        with self._guard():
            self.manager.resume()

    def extra_route(self, method: str, head: str, arg: Optional[str],
                    body) -> Optional[Dict[str, object]]:
        """The service's own routes: ``POST pause`` / ``POST resume``
        gate the scheduler and reply with :meth:`healthz`."""
        if method == "POST" and head in ("pause", "resume"):
            getattr(self, head)()
            return self.healthz()
        return None

    def wait_drained(self, timeout: float = 60.0) -> None:
        self.manager.wait_drained(timeout)

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        with self._guard():
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
        over the telemetry absorbed from workers (``sweep.*`` etc.)."""
        with self._guard():
            document = metrics_document(self.telemetry,
                                        serve_counters(self.stats),
                                        serve_timers(self.stats))
            document["mean_batch_width"] = self.stats.mean_batch_width
            return document

    def events_jsonl(self) -> str:
        """The telemetry event stream as schema-valid JSONL text."""
        with self._guard():
            return self.telemetry.to_jsonl()


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
