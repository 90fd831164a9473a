"""Local fleet bring-up: spawn worker processes, wire the coordinator.

The coordinator itself is process-agnostic — it only ever sees worker
*URLs*.  This module provides the local-machine convenience layer the
CLI, the benchmarks and CI use: launch N ``repro serve`` worker
processes on ephemeral ports (sharing one artifact store in
fingerprint-scoped mode), register them, and run the coordinator's
HTTP front end in the foreground.

Worker processes are real ``python -m repro.cli serve`` subprocesses,
not threads: each owns its GIL, so a 4-worker fleet gets genuine 4-way
parallelism over the CPU-bound matrix replays — which is where the
fleet's throughput win over a single server comes from.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.fleet.coordinator import FleetCoordinator
from repro.serve.frontend import start_http, wait_for_shutdown

#: the worker's one-line banner carries the ephemeral bound port.
_BANNER = re.compile(r"listening on (http://[\d.]+:\d+)")


class LocalWorker:
    """One ``repro serve`` worker subprocess."""

    def __init__(self, proc: subprocess.Popen, url: str, worker_id: str):
        self.proc = proc
        self.url = url
        self.id = worker_id

    def terminate(self, timeout: float = 5.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        """Hard-kill (failover tests: no drain, no goodbye)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)


def _worker_env() -> dict:
    """The subprocess environment, with :mod:`repro` importable even
    when the parent runs from a source checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}" if existing
                         else src)
    return env


def spawn_worker(worker_id: str, cache_root: Optional[str] = None,
                 scoped_cache: bool = True, capacity: int = 1024,
                 workers: int = 0, batch_window: float = 0.02,
                 startup_timeout: float = 30.0) -> LocalWorker:
    """Start one worker server on an ephemeral port; returns when its
    banner (and therefore its bound URL) has been read."""
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--host", "127.0.0.1", "--port", "0",
           "--capacity", str(capacity),
           "--workers", str(workers),
           "--batch-window", str(batch_window)]
    if cache_root is None:
        cmd.append("--no-cache")
    else:
        cmd += ["--cache-dir", str(cache_root)]
        if scoped_cache:
            cmd.append("--scoped-cache")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            env=_worker_env())
    deadline = time.monotonic() + startup_timeout
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner = line.strip()
        match = _BANNER.search(banner)
        if match:
            return LocalWorker(proc, match.group(1), worker_id)
    proc.kill()
    raise RuntimeError(f"worker {worker_id} failed to start "
                       f"(last output: {banner!r})")


def spawn_fleet(coordinator: FleetCoordinator, count: int,
                cache_root: Optional[str] = None,
                scoped_cache: bool = True, capacity: int = 1024,
                workers: int = 0,
                batch_window: float = 0.02) -> List[LocalWorker]:
    """Spawn ``count`` workers and register each with ``coordinator``."""
    spawned: List[LocalWorker] = []
    try:
        for index in range(count):
            worker = spawn_worker(f"w{index}", cache_root=cache_root,
                                  scoped_cache=scoped_cache,
                                  capacity=capacity, workers=workers,
                                  batch_window=batch_window)
            coordinator.register_worker(worker.id, worker.url)
            spawned.append(worker)
    except Exception:
        for worker in spawned:
            worker.terminate()
        raise
    return spawned


def fleet_forever(host: str = "127.0.0.1", port: int = 8360,
                  workers: int = 2,
                  worker_urls: Optional[List[str]] = None,
                  cache_root: Optional[str] = None,
                  scoped_cache: bool = True, capacity: int = 1024,
                  worker_jobs: int = 0, max_inflight: int = 1024,
                  heartbeat_interval: float = 0.25,
                  heartbeat_failures: int = 3) -> int:
    """Run a coordinator (plus optional local workers) until shut down
    over HTTP.  The CLI entry point behind ``repro fleet``."""
    coordinator = FleetCoordinator(
        max_inflight=max_inflight,
        heartbeat_interval=heartbeat_interval,
        heartbeat_failures=heartbeat_failures)
    spawned = spawn_fleet(coordinator, workers, cache_root=cache_root,
                          scoped_cache=scoped_cache, capacity=capacity,
                          workers=worker_jobs) if workers else []
    for index, url in enumerate(worker_urls or []):
        coordinator.register_worker(f"ext{index}", url)
    if not coordinator.live_workers():
        for worker in spawned:
            worker.terminate()
        print("repro fleet: no workers (use --workers N or "
              "--worker-url)", file=sys.stderr)
        return 1
    coordinator.start()
    server, thread = start_http(coordinator, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro fleet: listening on http://{bound_host}:{bound_port} "
          f"({len(coordinator.live_workers())} workers, "
          f"cache={cache_root or 'disabled'})")
    for worker in spawned:
        print(f"repro fleet: worker {worker.id} at {worker.url}")
    wait_for_shutdown(server, thread, "fleet")
    for worker in spawned:
        worker.terminate()
    return 0
