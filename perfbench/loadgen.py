"""The load generator: one process, at most two threads and two
connections, speaking the service's ``/v1`` HTTP protocol directly.

An open-loop phase has a submitter thread that sends every job when it
is due, whatever the service is doing, and a poller (the calling
thread) that lists the active jobs, notices completions and fetches
each result for the golden check.  Latency runs from a job's *due*
time to the poll that saw it finish, so a stall is charged to every
job it delays.  A burst phase streams a fixed job list through a
bounded in-flight window from the calling thread alone.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import mix

POLL_INTERVAL = 0.02


class HttpError(Exception):
    def __init__(self, status: int, body: object):
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class Client:
    """One keep-alive connection; counts requests and their time."""

    def __init__(self, url: str, timeout: float = 60.0):
        host, port = url.split("//", 1)[1].rstrip("/").split(":")
        self.host, self.port, self.timeout = host, int(port), timeout
        self.conn: Optional[http.client.HTTPConnection] = None
        self.requests = 0

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def call(self, method: str, path: str,
             body: Optional[Dict[str, object]] = None) -> object:
        data = json.dumps(body).encode() if body is not None else None
        self.requests += 1
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = self._connect()
            try:
                self.conn.request(method, "/v1/" + path, body=data,
                                  headers={"Content-Type":
                                           "application/json"})
                response = self.conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
                continue
            payload = json.loads(raw) if raw else {}
            if response.status >= 400:
                raise HttpError(response.status, payload)
            return payload
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class PhaseResult:
    """What one phase observed, client side."""

    def __init__(self, planned: int):
        self.planned = planned
        self.latencies_ms: List[float] = []
        #: how late the generator sent each job, by its own fault.
        self.lateness_ms: List[float] = []
        #: how long each job waited for the previous submit's answer.
        self.blocked_ms: List[float] = []
        self.submit_rtt_ms: List[float] = []
        self.result_rtt_ms: List[float] = []
        #: (seconds into the phase, rtt ms) of every active-list poll.
        self.polls: List[tuple] = []
        self.failed = 0
        self.mismatched = 0
        self.requests = 0
        self.wall_s = 0.0
        self.backlog: List[int] = []

    @property
    def settled(self) -> int:
        return len(self.latencies_ms) + self.failed + self.mismatched

    @property
    def errors(self) -> int:
        return self.failed + self.mismatched + (self.planned - self.settled)


class _Tracker:
    """Submitted-but-unfinished jobs, shared by both threads."""

    def __init__(self):
        self.lock = threading.Lock()
        #: job id -> (due time, job, submit-response time)
        self.pending: Dict[str, tuple] = {}

    def add(self, job_id: str, due: float, job: mix.Job) -> None:
        with self.lock:
            self.pending[job_id] = (due, job, time.perf_counter())

    def finished(self, active: set, asked_at: float) -> List[tuple]:
        """Jobs acknowledged before ``asked_at`` and no longer active."""
        with self.lock:
            done = [(job_id, entry) for job_id, entry
                    in self.pending.items()
                    if entry[2] < asked_at and job_id not in active]
            for job_id, _ in done:
                del self.pending[job_id]
        return done

    def __len__(self) -> int:
        with self.lock:
            return len(self.pending)


def _collect(client: Client, tracker: _Tracker, result: PhaseResult,
             goldens: dict, phase_start: float) -> None:
    """One poll: list active jobs, fetch and check every finished one."""
    asked_at = time.perf_counter()
    listing = client.call("GET", "jobs?active=1")["jobs"]
    seen_at = time.perf_counter()
    result.polls.append((asked_at - phase_start,
                         (seen_at - asked_at) * 1e3))
    active = {entry["job_id"] for entry in listing}
    result.backlog.append(len(active))
    for job_id, (due, job, _) in tracker.finished(active, asked_at):
        fetch_start = time.perf_counter()
        try:
            payload = client.call("GET", f"result/{job_id}")
        except HttpError:
            result.failed += 1
            continue
        result.result_rtt_ms.append(
            (time.perf_counter() - fetch_start) * 1e3)
        if goldens is None or mix.check_cell(goldens, job.name,
                                             job.config, payload):
            result.latencies_ms.append((seen_at - due) * 1e3)
        else:
            result.mismatched += 1


def open_loop(url: str, jobs: Sequence[mix.Job], goldens: dict,
              drain_timeout: float = 60.0) -> PhaseResult:
    """Send ``jobs`` on their schedule; wait for every answer."""
    result = PhaseResult(len(jobs))
    tracker = _Tracker()
    submitter_client = Client(url)
    poller = Client(url)
    done_submitting = threading.Event()
    start = time.perf_counter() + 0.05

    def submit_all() -> None:
        free_at = start  # when the previous submit returned
        try:
            for job in jobs:
                due = start + job.at
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                # the generator's own lateness excludes waiting for the
                # service to answer the previous submit (backpressure).
                result.lateness_ms.append((sent - max(due, free_at)) * 1e3)
                result.blocked_ms.append(max(0.0, free_at - due) * 1e3)
                try:
                    reply = submitter_client.call(
                        "POST", "submit", mix.job_spec(job.name,
                                                       job.config))
                except HttpError:
                    free_at = time.perf_counter()
                    result.failed += 1
                    continue
                free_at = time.perf_counter()
                result.submit_rtt_ms.append((free_at - sent) * 1e3)
                tracker.add(str(reply["job_id"]), due, job)
        finally:
            done_submitting.set()

    thread = threading.Thread(target=submit_all, name="loadgen-submit")
    thread.start()
    try:
        deadline = start + (jobs[-1].at if jobs else 0) + drain_timeout
        while not (done_submitting.is_set() and not len(tracker)):
            if time.perf_counter() > deadline:
                break
            time.sleep(POLL_INTERVAL)
            _collect(poller, tracker, result, goldens, start)
    finally:
        thread.join()
        result.wall_s = time.perf_counter() - start
        result.requests = submitter_client.requests + poller.requests
        submitter_client.close()
        poller.close()
    return result


def closed_burst(url: str, jobs: Sequence[mix.Job], goldens: dict,
                 window: int = mix.BURST_WINDOW,
                 timeout: float = 120.0) -> PhaseResult:
    """Stream ``jobs`` keeping at most ``window`` in flight."""
    result = PhaseResult(len(jobs))
    tracker = _Tracker()
    client = Client(url)
    start = time.perf_counter()
    queue = list(jobs)
    try:
        while (queue or len(tracker)) and \
                time.perf_counter() - start < timeout:
            while queue and len(tracker) < window:
                job = queue.pop(0)
                sent = time.perf_counter()
                try:
                    reply = client.call("POST", "submit",
                                        mix.job_spec(job.name, job.config))
                except HttpError:
                    result.failed += 1
                    continue
                result.submit_rtt_ms.append(
                    (time.perf_counter() - sent) * 1e3)
                tracker.add(str(reply["job_id"]), sent, job)
            time.sleep(POLL_INTERVAL)
            _collect(client, tracker, result, goldens, start)
    finally:
        result.wall_s = time.perf_counter() - start
        result.requests = client.requests
        client.close()
    return result


def wait_ready(url: str, alive: Callable[[], bool],
               timeout: float = 60.0) -> None:
    """Block until ``/v1/healthz`` answers."""
    client = Client(url, timeout=5.0)
    deadline = time.monotonic() + timeout
    try:
        while True:
            try:
                client.call("GET", "healthz")
                return
            except (OSError, HttpError, http.client.HTTPException):
                if not alive() or time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
    finally:
        client.close()
