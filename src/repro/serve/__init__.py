"""``repro.serve`` — the persistent evaluation service.

Every ``repro run``/``evaluate``/``sweep`` invocation used to be a cold
process that rebuilt traces, columnar contexts and caches it would immediately
throw away.  This package keeps them alive behind a long-lived service:

- :mod:`repro.serve.queue` — an asyncio job manager: bounded priority
  queue, per-job deadlines, cancellation, retry-with-backoff.
- :mod:`repro.serve.scheduler` — the batch coalescer: pending jobs that
  share a workload fingerprint are served by **one** matrix replay
  (one trace + one columnar context per workload), on warm workers
  that pin the persistent artifact cache.
- :mod:`repro.serve.protocol` — the versioned JSON protocol with
  structured errors.
- :mod:`repro.serve.server` — :class:`EvalService`, the service
  backend.
- :mod:`repro.serve.frontend` — the stdlib HTTP front end
  (``submit``/``status``/``result``/``cancel``/``healthz``/
  ``metrics``/...) shared by the service and the fleet coordinator.
- :mod:`repro.serve.client` — the blocking :class:`ServeClient`.

Service results are byte-identical to the offline :mod:`repro.api`
calls for the same inputs; ``tests/test_serve.py`` enforces this
differentially.  CLI: ``repro serve`` / ``repro submit`` /
``repro jobs``.
"""

from repro.serve.client import ServeClient, ServeError, connect
from repro.serve.protocol import (
    JOB_KINDS,
    PROTOCOL_VERSION,
    JobRequest,
    JobState,
    ProtocolError,
    validate_submission,
)
from repro.serve.queue import Job, JobManager, ServeStats
from repro.serve.scheduler import BatchScheduler, run_batch
from repro.serve.frontend import ServeHTTPServer, start_http
from repro.serve.server import EvalService, serve_forever

__all__ = [
    "JOB_KINDS",
    "PROTOCOL_VERSION",
    "Job",
    "JobManager",
    "JobRequest",
    "JobState",
    "ProtocolError",
    "ServeStats",
    "BatchScheduler",
    "run_batch",
    "EvalService",
    "ServeHTTPServer",
    "serve_forever",
    "start_http",
    "ServeClient",
    "ServeError",
    "connect",
    "validate_submission",
]
