"""``repro serve`` and ``repro fleet`` processes, and their warm store.

Set-up warms a server from a *template store*: a snapshot of an artifact
cache holding the 12 serve workloads' traces, lowered columns and the
48-config paper grid cells.  The template is built once per checkout
(keyed by the program's source digest, like a build) by pushing the grid
through a real ``repro serve``; every run then copies it into a fresh
scratch directory, so each run starts from the same warm state and
writes its novel cells into a store no other run sees.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

import loadgen
import mix
import procs

_BANNER = re.compile(r"listening on (http://[\d.]+:\d+)")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((procs.SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(procs.SRC)).encode())
        digest.update(path.read_bytes())
    digest.update((procs.HERE / "mix.py").read_bytes())
    return digest.hexdigest()[:16]


class Service:
    """One running ``repro serve`` (topology "serve") or ``repro
    fleet --workers 2`` (topology "fleet") on an ephemeral port."""

    def __init__(self, reaper: procs.Reaper, topology: str,
                 cache_dir: Path, log_path: Path):
        self.reaper = reaper
        self.topology = topology
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.proc = None
        self.url = ""

    def command(self) -> List[str]:
        common = ["--host", "127.0.0.1", "--port", "0",
                  "--capacity", "1024", "--cache-dir", str(self.cache_dir)]
        if self.topology == "serve":
            return [procs.python(), "-m", "repro.cli", "serve", "--workers",
                    "0", "--scoped-cache", *common]
        return [procs.python(), "-m", "repro.cli", "fleet", "--workers",
                "2", *common]

    def start(self, timeout: float = 60.0) -> "Service":
        env = procs.child_env(self.cache_dir)
        with open(self.log_path, "w") as log:
            self.proc = self.reaper.popen(self.command(), env, log)
        deadline = time.monotonic() + timeout
        while True:
            match = _BANNER.search(self.log_path.read_text())
            if match:
                self.url = match.group(1)
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise procs.BenchError(
                    f"{self.topology} did not start: "
                    f"{self.log_path.read_text()[-500:]!r}")
            time.sleep(0.02)
        loadgen.wait_ready(self.url, lambda: self.proc.poll() is None)
        return self

    def metrics(self) -> Dict[str, object]:
        client = loadgen.Client(self.url)
        try:
            return client.call("GET", "metrics")
        finally:
            client.close()

    def workers(self) -> List[Dict[str, object]]:
        """The fleet's worker listing (empty for a single server)."""
        if self.topology != "fleet":
            return []
        client = loadgen.Client(self.url)
        try:
            return client.call("GET", "workers")["workers"]
        finally:
            client.close()

    def serving_metrics(self) -> List[Dict[str, object]]:
        """``/v1/metrics`` of every process that executes batches."""
        if self.topology == "serve":
            return [self.metrics()]
        out = []
        for worker in self.workers():
            client = loadgen.Client(str(worker["url"]))
            try:
                out.append(client.call("GET", "metrics"))
            finally:
                client.close()
        return out

    def peak_rss_mb(self) -> float:
        return procs.group_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None and self.url:
            client = loadgen.Client(self.url, timeout=10.0)
            try:
                client.call("POST", "shutdown",
                            {"drain": False, "workers": True})
            except (OSError, loadgen.HttpError):
                pass
            finally:
                client.close()
        self.reaper.stop(self.proc, grace=10.0)
        self.proc = None


def template_store(reaper: procs.Reaper) -> Path:
    """The warm template store for this checkout, built if missing."""
    key = source_digest()
    store = procs.WORK / f"store-{key}"
    if store.is_dir():
        return store
    for stale in procs.WORK.glob("store-*"):
        shutil.rmtree(stale)
    building = procs.fresh_dir(procs.WORK / f"store-{key}.building")
    service = Service(reaper, "serve", building / "cache",
                      building / "serve.log").start()
    try:
        client = loadgen.Client(service.url)
        ids = [client.call("POST", "submit", {
            "kind": "sweep", "names": [name], "fast": True,
            "configs": list(mix.GRID)})["job_id"]
            for name in mix.SERVE_WORKLOADS]
        deadline = time.monotonic() + 600.0
        while client.call("GET", "jobs?active=1")["jobs"]:
            if time.monotonic() > deadline:
                raise procs.BenchError("template store build timed out")
            time.sleep(0.2)
        for job_id in ids:
            if client.call("GET", f"status/{job_id}")["state"] != "done":
                raise procs.BenchError(f"template job {job_id} failed")
        client.close()
    finally:
        service.stop()
    (building / "cache").rename(store)
    shutil.rmtree(building)
    return store


def warm(service: Service, goldens: dict) -> loadgen.PhaseResult:
    """Load every workload's trace and columns into the server."""
    jobs = [mix.Job(0.0, name, mix.WARM_CONFIG)
            for name in mix.SERVE_WORKLOADS]
    return loadgen.closed_burst(service.url, jobs, goldens,
                                window=len(jobs))


def start_warm(reaper: procs.Reaper, topology: str, template: Path,
               run_dir: Path, goldens: dict,
               label: Optional[str] = None) -> Service:
    label = label or topology
    cache = run_dir / f"{label}-cache"
    if cache.exists():
        shutil.rmtree(cache)
    shutil.copytree(template, cache)
    service = Service(reaper, topology, cache,
                      run_dir / f"{label}.log").start()
    try:
        result = warm(service, goldens)
        if result.errors:
            raise procs.BenchError(f"{topology} warm-up failed "
                                   f"({result.errors} bad answers)")
    except BaseException:
        service.stop()
        raise
    return service
