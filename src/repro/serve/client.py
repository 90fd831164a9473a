"""A blocking Python client for the evaluation service.

Stdlib only; every protocol failure surfaces as a :class:`ServeError`
carrying the structured error code, so callers dispatch on ``exc.code``
instead of parsing prose.

Transport: requests ride pooled keep-alive
:class:`http.client.HTTPConnection` objects instead of one fresh TCP
connection per request — the service speaks HTTP/1.1 with explicit
``Content-Length``, so connections persist across requests.  A
connection that went stale while idle (server restarted, socket timed
out) is detected on first use and replaced transparently, retrying the
request once.  ``transport_stats`` exposes how many requests were
served versus how many connections were actually opened, which is what
the throughput bench asserts on: a polling loop must not pay
per-request TCP setup.

>>> client = ServeClient("http://127.0.0.1:8350")
>>> job = client.submit("evaluate",
...                     configs=[{"array": "C2", "slots": 64,
...                               "speculation": True}],
...                     names=["crc"])
>>> result = client.wait(job["job_id"])
>>> print(result["result"]["suite_json"])
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from typing import Dict, List, Optional

from repro.serve.protocol import PROTOCOL_VERSION, JobState


class ServeError(Exception):
    """A structured error returned by the service."""

    def __init__(self, code: str, message: str,
                 http_status: int = 400,
                 field: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.http_status = http_status
        self.field = field


class _Connection(http.client.HTTPConnection):
    """HTTPConnection with Nagle disabled.

    :mod:`http.client` writes request head and body as separate
    ``send()`` calls; on a persistent connection Nagle holds the second
    write until the peer's delayed ACK (~40ms on Linux), which would
    cap a polling loop at ~25 requests/s.  ``TCP_NODELAY`` removes the
    stall; the per-request benefit is what ``transport_stats`` benches
    measure.
    """

    def connect(self):
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ConnectionPool:
    """A small stack of idle keep-alive connections to one host.

    Threads check a connection out for the duration of one request and
    return it afterwards, so concurrent callers (the fleet coordinator
    forwards from many HTTP handler threads) each ride their own
    persistent connection instead of serialising on a single socket.
    Connections that died while idle are simply discarded by the
    caller; ``opened`` counts real TCP setups.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.opened = 0
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def acquire(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            self.opened += 1
        return _Connection(self.host, self.port, timeout=self.timeout)

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            self._idle.append(conn)

    def discard(self, conn: http.client.HTTPConnection) -> None:
        try:
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            self.discard(conn)


class ServeClient:
    """Thin blocking wrapper over the versioned JSON protocol."""

    def __init__(self, base_url: str = "http://127.0.0.1:8350",
                 timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got "
                             f"{base_url!r}")
        self._pool = ConnectionPool(parsed.hostname or "127.0.0.1",
                                    parsed.port or 80, timeout)
        self.requests_sent = 0
        self.stale_retries = 0

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------
    @property
    def transport_stats(self) -> Dict[str, int]:
        """Connection-reuse accounting for benches and tests."""
        return {"requests": self.requests_sent,
                "connections_opened": self._pool.opened,
                "stale_retries": self.stale_retries}

    def close(self) -> None:
        """Drop every pooled idle connection (the client stays usable)."""
        self._pool.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None) -> object:
        data = (json.dumps(body).encode() if body is not None
                else (b"" if method == "POST" else None))
        target = f"/v1/{path}"
        self.requests_sent += 1
        # one transparent retry: a pooled connection can have gone
        # stale while idle, which only shows up on the next use.
        for attempt in (0, 1):
            conn = self._pool.acquire()
            fresh = conn.sock is None
            try:
                conn.request(method, target, body=data,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                raw = response.read()
                content_type = (response.getheader("Content-Type") or "")
                status = response.status
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, OSError):
                self._pool.discard(conn)
                if fresh or attempt:
                    raise
                self.stale_retries += 1
                continue
            if response.will_close:
                self._pool.discard(conn)
            else:
                self._pool.release(conn)
            return self._decode(status, raw, content_type)

    def _decode(self, status: int, raw: bytes,
                content_type: str) -> object:
        if status >= 400:
            try:
                error = json.loads(raw.decode()).get("error", {})
            except (json.JSONDecodeError, UnicodeDecodeError):
                error = {}
            raise ServeError(error.get("code", "bad_param"),
                             error.get("message",
                                       raw.decode(errors="replace")
                                       or f"HTTP {status}"),
                             http_status=status,
                             field=error.get("field"))
        if not content_type.startswith("application/json"):
            return raw.decode()
        return json.loads(raw.decode())

    # ------------------------------------------------------------------
    # Jobs.
    # ------------------------------------------------------------------
    def submit(self, kind: str, configs: Optional[List[Dict]] = None,
               names: Optional[List[str]] = None,
               target: Optional[str] = None,
               priority: int = 0,
               timeout: Optional[float] = None) -> Dict[str, object]:
        """Submit one job; returns its status (``job_id``, ``state``)."""
        body: Dict[str, object] = {"kind": kind, "priority": priority}
        if configs is not None:
            body["configs"] = configs
        if names is not None:
            body["names"] = names
        if target is not None:
            body["target"] = target
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", "submit", body)

    def submit_payload(self, body: Dict[str, object]) -> Dict[str, object]:
        """Submit a pre-built job-spec body verbatim (fleet forwarding)."""
        return self._request("POST", "submit", body)

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"status/{job_id}")

    def jobs(self, active: bool = False) -> List[Dict[str, object]]:
        path = "jobs?active=1" if active else "jobs"
        return self._request("GET", path)["jobs"]

    def result(self, job_id: str) -> Dict[str, object]:
        """The result payload; raises :class:`ServeError` until done."""
        return self._request("GET", f"result/{job_id}")

    def wait(self, job_id: str, poll: float = 0.05,
             timeout: Optional[float] = None) -> Dict[str, object]:
        """Poll until the job is terminal; return its result payload.

        Raises :class:`ServeError` with the job's structured code if it
        failed, was cancelled, or timed out; raises ``TimeoutError``
        if the *client-side* wait budget runs out first.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return self.result(job_id)
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout}s")
            time.sleep(poll)

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"cancel/{job_id}")

    # ------------------------------------------------------------------
    # Service control and observability.
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "metrics")

    def events_jsonl(self) -> str:
        return self._request("GET", "events")

    def pause(self) -> Dict[str, object]:
        return self._request("POST", "pause")

    def resume(self) -> Dict[str, object]:
        return self._request("POST", "resume")

    def shutdown(self, drain: bool = True) -> Dict[str, object]:
        return self._request("POST", "shutdown", {"drain": drain})


def connect(url: str = "http://127.0.0.1:8350",
            timeout: float = 60.0) -> ServeClient:
    """Convenience constructor mirroring :mod:`repro.api` style."""
    client = ServeClient(url, timeout=timeout)
    health = client.healthz()
    if health.get("protocol") != PROTOCOL_VERSION:
        raise ServeError(
            "bad_param",
            f"server speaks protocol {health.get('protocol')}, client "
            f"speaks {PROTOCOL_VERSION}")
    return client
