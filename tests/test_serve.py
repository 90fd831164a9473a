"""The persistent evaluation service (:mod:`repro.serve`).

Four families of guarantees:

1. Protocol: submissions are validated with structured, machine-
   dispatchable errors; malformed requests never reach the queue.
2. Lifecycle: submit -> poll -> result over real HTTP, plus the
   timeout / cancel / retry-with-backoff paths and the bounded queue.
3. Coalescing: jobs sharing a workload fingerprint are served by one
   batch (one trace + one memo), observable through ``serve.*`` stats.
4. The differential contract: service results are byte-identical to
   the offline :mod:`repro.api` calls for the same inputs.
"""

import json
import time

import pytest

from repro import api
from repro.obs import EVENT_TYPES, validate_jsonl
from repro.serve import (
    EvalService,
    JobState,
    ProtocolError,
    ServeClient,
    ServeError,
    start_http,
    validate_submission,
)
from repro.serve.protocol import ERROR_CODES

CRC_C1 = {"array": "C1", "slots": 16, "speculation": False}
CRC_C2 = {"array": "C2", "slots": 64, "speculation": True}


# ----------------------------------------------------------------------
# Protocol validation (no service needed).
# ----------------------------------------------------------------------
def _error_code(payload):
    with pytest.raises(ProtocolError) as excinfo:
        validate_submission(payload)
    return excinfo.value.code


def test_validation_rejects_malformed_submissions():
    assert _error_code("not an object") == "bad_json"
    assert _error_code({"kind": "explode"}) == "unknown_kind"
    assert _error_code({}) == "unknown_kind"
    assert _error_code({"kind": "evaluate",
                        "names": ["nope"]}) == "unknown_workload"
    assert _error_code({"kind": "evaluate",
                        "configs": [{"array": "C9"}]}) == "unknown_array"
    assert _error_code({"kind": "evaluate",
                        "configs": [{"array": "C1",
                                     "slots": "many"}]}) == "bad_param"
    assert _error_code({"kind": "evaluate", "configs": []}) == "bad_param"
    assert _error_code({"kind": "evaluate",
                        "configs": [CRC_C1, CRC_C2]}) == "bad_param"
    assert _error_code({"kind": "run"}) == "bad_param"  # no target
    assert _error_code({"kind": "evaluate",
                        "target": "crc"}) == "bad_param"
    assert _error_code({"kind": "evaluate",
                        "timeout": -1}) == "bad_param"
    assert _error_code({"kind": "evaluate",
                        "priority": True}) == "bad_param"
    assert _error_code({"kind": "evaluate",
                        "surprise": 1}) == "bad_param"


def test_validation_normalises_defaults():
    request = validate_submission({"kind": "evaluate",
                                   "names": ["crc"]})
    assert request.configs == (("C2", 64, True),)
    assert request.names == ("crc",)
    request = validate_submission({"kind": "sweep"})
    assert len(request.configs) == 20  # the paper's Table 2 matrix
    assert request.names is None


def test_fingerprint_groups_by_workloads_not_configs():
    a = validate_submission({"kind": "evaluate", "names": ["crc"],
                             "configs": [CRC_C1]})
    b = validate_submission({"kind": "sweep", "names": ["crc"],
                             "configs": [CRC_C2, CRC_C1]})
    c = validate_submission({"kind": "evaluate", "names": ["sha"],
                             "configs": [CRC_C1]})
    d = validate_submission({"kind": "run", "target": "crc"})
    assert a.fingerprint == b.fingerprint  # same trace, any configs
    assert a.fingerprint != c.fingerprint  # different workloads
    assert a.fingerprint != d.fingerprint  # run jobs re-execute


# ----------------------------------------------------------------------
# A real service over real HTTP, shared by the lifecycle tests.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    svc = EvalService(workers=0, cache_root=None, batch_window=0.01)
    svc.start()
    server, thread = start_http(svc)
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout=120.0)
    yield svc, client
    if not svc._stopped:
        svc.stop(drain=False)
    server.shutdown()


def test_lifecycle_submit_poll_result(service):
    svc, client = service
    health = client.healthz()
    assert health["ok"] and health["protocol"] == 1
    job = client.submit("evaluate", configs=[CRC_C1], names=["crc"])
    assert job["state"] == JobState.PENDING
    assert job["job_id"]
    payload = client.wait(job["job_id"], timeout=120)
    assert payload["state"] == JobState.DONE
    result = payload["result"]
    assert result["kind"] == "evaluate"
    assert result["system"] == "C1/16/nospec"
    status = client.status(job["job_id"])
    assert status["state"] == JobState.DONE
    assert any(j["job_id"] == job["job_id"] for j in client.jobs())


def test_differential_evaluate_byte_identical(service):
    svc, client = service
    job = client.submit("evaluate", configs=[CRC_C2], names=["crc"])
    payload = client.wait(job["job_id"], timeout=120)
    offline = api.evaluate(
        api.SystemSpec(array="C2", slots=64, speculation=True).build(),
        names=["crc"])
    assert payload["result"]["suite_json"] == offline.to_json()


def test_differential_sweep_byte_identical(service):
    svc, client = service
    job = client.submit("sweep", configs=[CRC_C1, CRC_C2],
                        names=["crc"])
    payload = client.wait(job["job_id"], timeout=120)
    offline = api.sweep(
        [api.SystemSpec(array="C1", slots=16).build(),
         api.SystemSpec(array="C2", slots=64, speculation=True).build()],
        names=["crc"])
    assert payload["result"]["matrix_json"] == offline.results_json()


def test_batch_coalescing_shares_one_replay(service):
    svc, client = service
    before = svc.stats.batches
    client.pause()
    jobs = [client.submit("evaluate",
                          configs=[{"array": "C1", "slots": slots,
                                    "speculation": False}],
                          names=["crc"])
            for slots in (8, 24, 48)]
    client.resume()
    payloads = [client.wait(job["job_id"], timeout=120)
                for job in jobs]
    # all three ran in ONE batch: one trace, one translation memo
    assert svc.stats.batches == before + 1
    for job in jobs:
        assert client.status(job["job_id"])["batch_width"] == 3
    systems = [p["result"]["system"] for p in payloads]
    assert systems == ["C1/8/nospec", "C1/24/nospec", "C1/48/nospec"]


def test_legacy_fast_key_never_splits_a_batch(service):
    """Old clients still send ``"fast"``: it must be a boolean, and is
    then dropped, so jobs that differ only in it share one fingerprint
    and one batch, and answer exactly as the offline API does."""
    svc, client = service
    base = {"kind": "evaluate", "configs": [CRC_C2], "names": ["crc"]}
    bodies = [dict(base, fast=True), dict(base, fast=False), dict(base)]
    assert len({validate_submission(body).fingerprint
                for body in bodies}) == 1
    assert _error_code(dict(base, fast="yes")) == "bad_param"
    before = svc.stats.batches
    client.pause()
    jobs = [client.submit_payload(body) for body in bodies]
    client.resume()
    payloads = [client.wait(job["job_id"], timeout=120)
                for job in jobs]
    assert svc.stats.batches == before + 1
    for job in jobs:
        assert client.status(job["job_id"])["batch_width"] == 3
    offline = api.evaluate(
        api.SystemSpec(array="C2", slots=64, speculation=True).build(),
        names=["crc"])
    assert [p["result"]["suite_json"] for p in payloads] \
        == [offline.to_json()] * 3


def test_priority_orders_claims(service):
    svc, client = service
    client.pause()
    low = client.submit("evaluate", configs=[CRC_C1], names=["crc"],
                        priority=0)
    high = client.submit("evaluate", configs=[CRC_C1], names=["sha"],
                         priority=10)
    client.resume()
    client.wait(low["job_id"], timeout=120)
    client.wait(high["job_id"], timeout=120)
    low_job = svc.manager.jobs[low["job_id"]]
    high_job = svc.manager.jobs[high["job_id"]]
    assert high_job.started_at <= low_job.started_at


def test_cancel_pending_job(service):
    svc, client = service
    client.pause()
    job = client.submit("evaluate", configs=[CRC_C1], names=["crc"])
    cancelled = client.cancel(job["job_id"])
    client.resume()
    assert cancelled["state"] == JobState.CANCELLED
    with pytest.raises(ServeError) as excinfo:
        client.result(job["job_id"])
    assert excinfo.value.code == "job_cancelled"


def test_timeout_while_queued(service):
    svc, client = service
    client.pause()
    job = client.submit("evaluate", configs=[CRC_C1], names=["crc"],
                        timeout=0.01)
    time.sleep(0.05)
    client.resume()
    payload = client.status(job["job_id"])
    deadline = time.monotonic() + 10
    while (payload["state"] not in JobState.TERMINAL
           and time.monotonic() < deadline):
        time.sleep(0.01)
        payload = client.status(job["job_id"])
    assert payload["state"] == JobState.TIMEOUT
    with pytest.raises(ServeError) as excinfo:
        client.result(job["job_id"])
    assert excinfo.value.code == "job_timeout"


def test_unknown_job_and_not_finished_errors(service):
    svc, client = service
    with pytest.raises(ServeError) as excinfo:
        client.status("j999999")
    assert excinfo.value.code == "unknown_job"
    assert excinfo.value.http_status == 404
    client.pause()
    job = client.submit("evaluate", configs=[CRC_C1], names=["crc"])
    with pytest.raises(ServeError) as excinfo:
        client.result(job["job_id"])
    assert excinfo.value.code == "not_finished"
    client.cancel(job["job_id"])
    client.resume()


def test_metrics_and_events_schema(service):
    svc, client = service
    metrics = client.metrics()
    counters = metrics["counters"]
    assert counters["serve.jobs_submitted"] >= 1
    assert counters["serve.batches"] >= 1
    assert "serve.queue_seconds" in metrics["timers"]
    assert "serve.exec_seconds" in metrics["timers"]
    # latency histogram buckets sum to the number of terminal jobs
    buckets = sum(v for k, v in counters.items()
                  if k.startswith("serve.latency_"))
    terminal = (counters["serve.jobs_completed"]
                + counters["serve.jobs_failed"]
                + counters["serve.jobs_cancelled"]
                + counters["serve.jobs_timed_out"])
    assert buckets == terminal
    lines = client.events_jsonl().splitlines()
    assert validate_jsonl(lines) == []
    types = {json.loads(line)["type"] for line in lines}
    assert "serve.job_submitted" in types
    assert "serve.batch_dispatched" in types
    assert "serve.job_finished" in types
    assert types <= EVENT_TYPES


# ----------------------------------------------------------------------
# Retry, queue bounds and drain: small dedicated services with a stub
# runner, so no real evaluation cost.
# ----------------------------------------------------------------------
def _stub_runner(spec):
    return {"results": {job["id"]: {"kind": job["kind"], "stub": True}
                        for job in spec["jobs"]},
            "counters": {}}


def test_retry_with_backoff_recovers_from_worker_failure():
    calls = []

    def flaky(spec):
        calls.append(time.monotonic())
        if len(calls) <= 2:
            raise RuntimeError("worker exploded")
        return _stub_runner(spec)

    svc = EvalService(workers=0, batch_window=0.0, max_retries=2,
                      backoff_base=0.02, runner=flaky).start()
    try:
        job = svc.submit({"kind": "evaluate", "names": ["crc"],
                          "configs": [CRC_C1]})
        result = svc.result(job["job_id"], wait=True, timeout=30)
        assert result["result"]["stub"] is True
        assert svc.stats.retries == 2
        assert svc.status(job["job_id"])["attempts"] == 3
        assert len(calls) == 3
        # exponential backoff: second gap at least ~2x the base
        assert calls[2] - calls[1] >= 0.03
    finally:
        svc.stop(drain=False)


def test_retries_exhausted_fails_with_structured_error():
    def always_broken(spec):
        raise RuntimeError("permanently broken")

    svc = EvalService(workers=0, batch_window=0.0, max_retries=1,
                      backoff_base=0.01, runner=always_broken).start()
    try:
        job = svc.submit({"kind": "evaluate", "names": ["crc"],
                          "configs": [CRC_C1]})
        with pytest.raises(ProtocolError) as excinfo:
            svc.result(job["job_id"], wait=True, timeout=30)
        assert excinfo.value.code == "job_failed"
        status = svc.status(job["job_id"])
        assert status["state"] == JobState.FAILED
        assert status["error"]["code"] == "worker_failure"
        assert status["error"]["code"] in ERROR_CODES
        assert "permanently broken" in status["error"]["message"]
        assert status["attempts"] == 2  # first try + one retry
    finally:
        svc.stop(drain=False)


def test_bounded_queue_rejects_beyond_capacity():
    svc = EvalService(workers=0, capacity=2,
                      runner=_stub_runner).start()
    try:
        svc.pause()
        for _ in range(2):
            svc.submit({"kind": "evaluate", "names": ["crc"],
                        "configs": [CRC_C1]})
        with pytest.raises(ProtocolError) as excinfo:
            svc.submit({"kind": "evaluate", "names": ["crc"],
                        "configs": [CRC_C1]})
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.http_status == 429
        assert svc.stats.jobs_rejected == 1
    finally:
        svc.stop(drain=False)


def test_clean_shutdown_drains_queue():
    svc = EvalService(workers=0, batch_window=0.0,
                      runner=_stub_runner).start()
    svc.pause()
    jobs = [svc.submit({"kind": "evaluate", "names": ["crc"],
                        "configs": [CRC_C1]}) for _ in range(5)]
    summary = svc.stop(drain=True)  # resumes, drains, then stops
    assert summary["drained"] and summary["active"] == 0
    assert svc.stats.jobs_completed == 5
    for job in jobs:
        tracked = svc.manager.jobs[job["job_id"]]
        assert tracked.state == JobState.DONE


def test_submissions_rejected_while_draining():
    svc = EvalService(workers=0, runner=_stub_runner).start()
    try:
        svc.manager.stop_accepting()
        with pytest.raises(ProtocolError) as excinfo:
            svc.submit({"kind": "evaluate", "names": ["crc"],
                        "configs": [CRC_C1]})
        assert excinfo.value.code == "shutting_down"
    finally:
        svc.stop(drain=False)


def test_inprocess_batches_never_run_concurrently():
    """workers=0 must execute batches strictly serially: the replay
    engine's shared per-workload caches are not thread-safe, and two
    overlapping batches of one workload corrupt each other's
    translation state (byte-identity violation)."""
    import threading

    lock = threading.Lock()
    running = 0
    max_running = 0

    def tracking(spec):
        nonlocal running, max_running
        with lock:
            running += 1
            max_running = max(max_running, running)
        time.sleep(0.02)  # hold the slot so overlap would be visible
        with lock:
            running -= 1
        return _stub_runner(spec)

    svc = EvalService(workers=0, batch_window=0.0,
                      runner=tracking).start()
    try:
        svc.pause()
        # distinct fingerprints -> distinct batches, claimed back to
        # back; a multi-thread executor would overlap their runners.
        jobs = [svc.submit({"kind": "evaluate", "names": [name],
                            "configs": [CRC_C1]})
                for name in ("crc", "sha", "bitcount", "quicksort")]
        svc.resume()
        for job in jobs:
            svc.result(job["job_id"], wait=True, timeout=30)
    finally:
        svc.stop(drain=False)
    assert svc.stats.batches == 4
    assert max_running == 1


def test_cancel_running_job_discards_result():
    import threading

    release = threading.Event()

    def slow(spec):
        release.wait(10)
        return _stub_runner(spec)

    svc = EvalService(workers=0, batch_window=0.0,
                      runner=slow).start()
    try:
        job = svc.submit({"kind": "evaluate", "names": ["crc"],
                          "configs": [CRC_C1]})
        deadline = time.monotonic() + 5
        while (svc.status(job["job_id"])["state"] != JobState.RUNNING
               and time.monotonic() < deadline):
            time.sleep(0.005)
        svc.cancel(job["job_id"])
        release.set()
        with pytest.raises(ProtocolError) as excinfo:
            svc.result(job["job_id"], wait=True, timeout=30)
        assert excinfo.value.code == "job_cancelled"
        assert svc.stats.jobs_cancelled == 1
    finally:
        svc.stop(drain=False)


# ----------------------------------------------------------------------
# Transport: the client keeps its HTTP connection alive across calls.
# ----------------------------------------------------------------------
def test_client_reuses_one_connection_across_requests():
    svc = EvalService(workers=0, batch_window=0.0,
                      runner=_stub_runner).start()
    server, _ = start_http(svc)
    try:
        client = ServeClient("http://%s:%s" % server.server_address[:2])
        job_ids = []
        for _ in range(5):
            job = client.submit("evaluate", configs=[CRC_C1],
                                names=["crc"])
            job_ids.append(job["job_id"])
        for job_id in job_ids:
            client.wait(job_id, timeout=30)
        stats = client.transport_stats
        # submit + at least one poll + result per job: many requests...
        assert stats["requests"] >= 15
        # ...over a single persistent connection.
        assert stats["connections_opened"] == 1
        assert stats["stale_retries"] == 0
    finally:
        svc.stop(drain=False)
        server.shutdown()


def test_client_survives_a_stale_pooled_connection():
    """A pooled socket that dies while idle (server timed it out or
    restarted between calls) is retried transparently once, on a fresh
    connection — the caller never sees the drop."""
    svc = EvalService(workers=0, batch_window=0.0,
                      runner=_stub_runner).start()
    server, _ = start_http(svc)
    try:
        client = ServeClient("http://%s:%s" % server.server_address[:2])
        assert client.healthz()["ok"]  # connection now idles in pool
        conn = client._pool.acquire()
        assert conn.sock is not None  # the same live connection
        conn.sock.close()  # ...which the server side just dropped
        client._pool.release(conn)
        assert client.healthz()["ok"]  # transparent retry
        assert client.transport_stats["stale_retries"] == 1
        assert client.transport_stats["connections_opened"] == 2
    finally:
        svc.stop(drain=False)
        server.shutdown()
