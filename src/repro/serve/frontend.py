"""The one HTTP front end of ``repro serve`` and ``repro fleet``.

Both transports speak the versioned JSON protocol
(:mod:`repro.serve.protocol`) through the same stdlib
:class:`http.server.ThreadingHTTPServer` — no third-party dependency.
Only the *backend* behind it differs: an
:class:`~repro.serve.server.EvalService` or a
:class:`~repro.fleet.coordinator.FleetCoordinator`.  A backend serves
the common ``/v1`` routes through the same methods::

    healthz()  metrics()  events_jsonl()  job_listing(active)
    status(job_id)  result(job_id, wait)  submit(payload)
    cancel(job_id)  shutdown(options)

and its own routes through ``extra_route(method, head, arg, body)``,
which returns the reply object or ``None`` for an unknown route
(``body`` reads the request body on demand).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError, dumps, loads


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one backend."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], backend):
        super().__init__(address, _Handler)
        self.backend = backend
        #: set by the shutdown route; :func:`wait_for_shutdown` exits on it.
        self.shutdown_requested = threading.Event()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # replies are one buffered write; Nagle would otherwise delay
    # them behind the client's delayed ACK on keep-alive sockets.
    disable_nagle_algorithm = True
    server: ServeHTTPServer

    # quiet: the backends have telemetry, stderr chatter is noise.
    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # ------------------------------------------------------------------
    def _reply(self, body: bytes, status: int = 200,
               content_type: str = "application/json",
               close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> object:
        return loads(self.rfile.read(self._length) if self._length
                     else b"")

    def _dispatch(self, method: str) -> None:
        length = (self.headers.get("Content-Length") or "0").strip()
        if not (length.isascii() and length.isdigit()):
            # where the body ends is unknown, so this connection cannot
            # frame another request: answer, then close it.
            error = ProtocolError(
                "bad_json", f"Content-Length must be a non-negative "
                            f"integer, got {length!r}", "Content-Length")
            self._reply(dumps(error.as_dict()), error.http_status,
                        close=True)
            return
        self._length = int(length)
        try:
            self._route(method)
        except ProtocolError as exc:
            self._reply(dumps(exc.as_dict()), exc.http_status)

    def _route(self, method: str) -> None:
        backend = self.server.backend
        path, query = (self.path.split("?") + [""])[:2]
        parts = [p for p in path.split("/") if p]
        if parts and parts[0] == "v1":
            parts = parts[1:]
        if not parts:
            raise ProtocolError("not_found", "no route", http_status=404)
        head = parts[0]
        arg = parts[1] if len(parts) > 1 else None
        status = 200
        if method == "GET" and head == "events":
            self._reply(backend.events_jsonl().encode(),
                        content_type="application/x-ndjson")
            return
        if method == "GET" and head == "healthz":
            reply = backend.healthz()
        elif method == "GET" and head == "metrics":
            reply = backend.metrics()
        elif method == "GET" and head == "jobs" and arg is None:
            active = "active=1" in query
            reply = {"jobs": backend.job_listing(active=active),
                     "protocol": PROTOCOL_VERSION}
        elif method == "GET" and head == "status" and arg:
            reply = backend.status(arg)
        elif method == "GET" and head == "result" and arg:
            reply = backend.result(arg, wait="wait=1" in query)
        elif method == "POST" and head == "submit":
            reply, status = backend.submit(self._body()), 202
        elif method == "POST" and head == "cancel" and arg:
            reply = backend.cancel(arg)
        elif method == "POST" and head == "shutdown":
            options = self._body()
            if not isinstance(options, dict):
                raise ProtocolError("bad_json", "shutdown body must be "
                                    "a JSON object")
            reply = backend.shutdown(options)
            reply["protocol"] = PROTOCOL_VERSION
            self._reply(dumps(reply))
            self.server.shutdown_requested.set()
            return
        else:
            reply = backend.extra_route(method, head, arg, self._body)
            if reply is None:
                raise ProtocolError("not_found",
                                    f"no route {self.path!r}",
                                    http_status=404)
        self._reply(dumps(reply), status)


def start_http(backend, host: str = "127.0.0.1", port: int = 0
               ) -> Tuple[ServeHTTPServer, threading.Thread]:
    """Start the HTTP front end for ``backend`` on a background thread.

    Returns the server (``server.server_address`` carries the bound
    port when ``port=0``) and its thread; used by tests, benches and
    the CLI's foreground loops.
    """
    server = ServeHTTPServer((host, port), backend)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-http", daemon=True)
    thread.start()
    return server, thread


def wait_for_shutdown(server: ServeHTTPServer, thread: threading.Thread,
                      name: str) -> None:
    """Block until ``POST shutdown`` stops the backend, then close the
    front end.  Ctrl-C is a draining shutdown that also stops a fleet's
    workers."""
    try:
        server.shutdown_requested.wait()
    except KeyboardInterrupt:
        print(f"\nrepro {name}: draining ...")
        server.backend.shutdown({"drain": True, "workers": True})
    server.shutdown()
    thread.join(5.0)
