"""The shared HTTP front end (:mod:`repro.serve.frontend`).

``repro serve`` and ``repro fleet`` answer through one handler, so the
same conversation must get the same replies from both backends: the
common routes behave alike, each backend keeps its own extra routes
(and the other answers them ``not_found``), and a malformed request —
bad JSON, a non-object shutdown body, an unreadable ``Content-Length``
— gets a structured error from the closed vocabulary, never a hang.
Requests go over raw sockets so malformed framing reaches the server
exactly as written.
"""

import json
import socket

import pytest

from repro.fleet import FleetCoordinator
from repro.serve import start_http
from repro.serve.protocol import ERROR_CODES
from tests.test_fleet import _stub_worker

#: every raw exchange must finish well inside this (seconds).
TIMEOUT = 5.0

#: routes only one backend has, with the status that backend answers;
#: the other answers ``not_found``.
SERVE_ONLY = [(("POST", "/v1/pause", b""), 200),
              (("POST", "/v1/resume", b""), 200)]
FLEET_ONLY = [(("GET", "/v1/workers", b""), 200),
              (("POST", "/v1/register", b"[1]"), 400),  # bad_json
              (("POST", "/v1/heartbeat/w0", b""), 200)]


def _exchange(address, method, path, body=b"", length=None):
    """Send one request over a fresh keep-alive socket; return
    ``(status, headers, body, closed)`` where ``closed`` says the
    reply announced ``Connection: close`` (and the server then hung
    up)."""
    length = str(len(body)) if length is None else length
    request = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {length}\r\n\r\n").encode() + body
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(request)
        raw = b""
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            assert chunk, f"no reply to {method} {path}"
            raw += chunk
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        status = int(lines[0].split()[1])
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(rest) < int(headers["Content-Length"]):
            rest += sock.recv(65536)
        closed = headers.get("Connection") == "close"
        if closed:
            assert sock.recv(1) == b"", "server kept the connection"
    return status, headers, rest, closed


@pytest.fixture(params=["serve", "fleet"], scope="module")
def backend(request):
    """``(name, address)`` of a live front end over a stub backend."""
    svc, server, url = _stub_worker()
    if request.param == "serve":
        yield "serve", server.server_address[:2]
    else:
        fleet = FleetCoordinator(heartbeat_interval=0.02).start()
        fleet.register_worker("w0", url)
        fserver, _ = start_http(fleet)
        yield "fleet", fserver.server_address[:2]
        fleet.stop(drain=False)
        fserver.shutdown()
        fserver.server_close()
    svc.stop(drain=False)
    server.shutdown()
    server.server_close()


def _submit(spec):
    return ("POST", "/v1/submit", json.dumps(spec).encode())


#: (request, status, error code or None, error field or None).
CONVERSATION = [
    (("GET", "/v1/healthz", b""), 200, None, None),
    (("GET", "/v1/nowhere", b""), 404, "not_found", None),
    (("GET", "/", b""), 404, "not_found", None),
    (("POST", "/v1/healthz", b""), 404, "not_found", None),
    (("GET", "/v1/jobs/extra", b""), 404, "not_found", None),
    (("POST", "/v1/submit", b"{x"), 400, "bad_json", None),
    (_submit({"kind": "explode"}), 400, "unknown_kind", "kind"),
    (_submit({"kind": "evaluate", "names": ["nope"]}), 400,
     "unknown_workload", "names"),
    (("GET", "/v1/status/nope", b""), 404, "unknown_job", None),
    (("GET", "/v1/result/nope", b""), 404, "unknown_job", None),
    (("POST", "/v1/cancel/nope", b""), 404, "unknown_job", None),
    (("POST", "/v1/shutdown", b"[1]"), 400, "bad_json", None),
    (("POST", "/v1/shutdown", b"null"), 400, "bad_json", None),
    (("GET", "/v1/healthz", b""), 200, None, None),  # still serving
]


def test_protocol_conformance(backend):
    name, address = backend
    for request, status, code, field in CONVERSATION:
        got, headers, body, closed = _exchange(address, *request)
        assert got == status and not closed, (request, body)
        assert headers["Content-Type"] == "application/json"
        reply = json.loads(body)
        assert reply["protocol"] == 1
        if code is None:
            assert "error" not in reply, (request, reply)
        else:
            assert reply["error"]["code"] == code, (request, reply)
            assert reply["error"].get("field") == field, (request, reply)
    _, _, body, _ = _exchange(address, "GET", "/v1/jobs?active=1")
    assert json.loads(body) == {"jobs": [], "protocol": 1}
    status, headers, body, _ = _exchange(address, "GET", "/v1/events")
    assert status == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    assert json.loads(body.splitlines()[0])["type"] == "meta"

    own, other = ((SERVE_ONLY, FLEET_ONLY) if name == "serve"
                  else (FLEET_ONLY, SERVE_ONLY))
    for request, _ in other:
        status, _, body, _ = _exchange(address, *request)
        assert status == 404, request
        assert json.loads(body)["error"]["code"] == "not_found"
    for request, expected in own:
        status, _, body, _ = _exchange(address, *request)
        assert status == expected, (request, body)


@pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
def test_bad_content_length_gets_structured_400_and_close(backend,
                                                          length):
    """A length that is not a non-negative integer is ``bad_json`` on
    ``Content-Length``, answered at once (reading ``-1`` bytes would
    wait for EOF) and followed by a close, since the body's end is
    unknown."""
    _, address = backend
    status, _, body, closed = _exchange(
        address, "POST", "/v1/submit", b'{"kind": "run"}', length=length)
    assert status == 400 and closed
    error = json.loads(body)["error"]
    assert error["code"] == "bad_json" and error["code"] in ERROR_CODES
    assert error["field"] == "Content-Length"
