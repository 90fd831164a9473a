"""The serve floor: a real ``repro serve`` HTTP front end and job queue
whose batches do no work, so its job latency is the service's own
overhead (HTTP, queue, coalescing window, polling).

    python3 perfbench/floor_server.py    # prints its URL, serves until killed
"""

from __future__ import annotations

import signal
import sys


def noop_batch(spec):
    return {"results": {job["id"]: {"kind": "evaluate"}
                        for job in spec["jobs"]},
            "counters": {}}


def main() -> int:
    from repro.serve.server import EvalService, start_http

    service = EvalService(workers=0, cache_root=None, capacity=1024,
                          runner=noop_batch).start()
    server, _ = start_http(service, "127.0.0.1", 0)
    host, port = server.server_address[:2]
    print(f"floor server listening on http://{host}:{port}", flush=True)
    signal.sigwait({signal.SIGTERM, signal.SIGINT})
    server.shutdown()
    service.stop(drain=False)
    return 0


if __name__ == "__main__":
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
    sys.exit(main())
