"""Evaluation-service throughput: a coalesced burst vs cold calls.

Not a paper experiment — this bench guards the PR's acceptance bar for
the persistent evaluation service (:mod:`repro.serve`):

- a 50-job mixed-configuration burst submitted through the service must
  finish at least 3x faster than 50 sequential *cold*
  :func:`repro.api.evaluate` calls — cold as in fifty separate CLI
  processes, each recompiling and retracing the workload it is about to
  throw away (the in-process caches are cleared between calls to
  emulate that).  The batch coalescer instead serves every
  configuration from one trace and one shared columnar context;
- the comparison doubles as a transparency check: every job's
  ``suite_json`` must be byte-identical to its offline counterpart.

All measured wall-clocks and batching stats are written to
``BENCH_serve.json`` next to this file, so the before/after trajectory
is tracked PR-over-PR in machine-readable form.
"""

import json
import time
from pathlib import Path

import pytest

import repro.workloads as workloads
from repro import api
from repro.serve import EvalService, ServeClient, scheduler, start_http

#: 50 distinct systems: 3 arrays x {no-spec, spec} x 8 cache sizes,
#: plus the two ideal-array bounds — a deliberately mixed burst, since
#: coalescing must win on fingerprint (workloads), not on equal configs.
CONFIG_SPECS = [(array, slots, spec)
                for array in ("C1", "C2", "C3")
                for spec in (False, True)
                for slots in (16, 32, 64, 128, 256, 512, 1024, 2048)]
CONFIG_SPECS += [("ideal", 64, False), ("ideal", 64, True)]

NAMES = ["crc"]

#: wall-clocks and batching stats; dumped to BENCH_serve.json.
RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_serve.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


def _evict_workload_caches():
    """Emulate a cold process: drop the compiled programs, traces and
    the inline serve worker's sweep rows."""
    workloads._PROGRAMS.clear()
    workloads._RUNS.clear()
    scheduler._WORKER_ROWS.clear()


def test_service_burst_vs_cold_calls(capsys):
    """Acceptance bar: the coalesced 50-job burst is >=3x the loop."""
    assert len(CONFIG_SPECS) == 50

    # -- baseline: 50 sequential cold evaluate calls -------------------
    start = time.perf_counter()
    offline = []
    for array, slots, spec in CONFIG_SPECS:
        _evict_workload_caches()
        config = api.SystemSpec(array=array, slots=slots,
                                speculation=spec).build()
        offline.append(api.evaluate(config, names=NAMES))
    sequential_seconds = time.perf_counter() - start

    # -- the service: one burst over HTTP ------------------------------
    # the service pays for its own single trace too (workers=0 shares
    # this process's caches, which the baseline loop just populated)
    _evict_workload_caches()
    service = EvalService(workers=0, cache_root=None).start()
    server, _thread = start_http(service)
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout=600.0)
    try:
        client.pause()  # hold the queue so the burst lands together
        start = time.perf_counter()
        jobs = [client.submit("evaluate",
                              configs=[{"array": array, "slots": slots,
                                        "speculation": spec}],
                              names=NAMES)
                for array, slots, spec in CONFIG_SPECS]
        client.resume()
        payloads = [client.wait(job["job_id"], timeout=600)
                    for job in jobs]
        service_seconds = time.perf_counter() - start

        # transparency: byte-identical to the offline calls
        for payload, suite in zip(payloads, offline):
            assert payload["result"]["suite_json"] == suite.to_json()

        stats = service.stats
        assert stats.batches == 1  # the whole burst coalesced
        assert stats.max_batch_width == 50
    finally:
        service.stop(drain=False)
        server.shutdown()

    speedup = sequential_seconds / service_seconds
    RESULTS["jobs"] = len(jobs)
    RESULTS["workloads"] = list(NAMES)
    RESULTS["sequential_evaluate_seconds"] = sequential_seconds
    RESULTS["service_burst_seconds"] = service_seconds
    RESULTS["service_speedup_over_sequential"] = speedup
    RESULTS["batches"] = stats.batches
    RESULTS["mean_batch_width"] = stats.mean_batch_width
    RESULTS["queue_seconds"] = stats.queue_seconds
    RESULTS["exec_seconds"] = stats.exec_seconds
    with capsys.disabled():
        print(f"\n50 cold evaluate calls: {sequential_seconds:.2f}s, "
              f"service burst: {service_seconds:.2f}s -> "
              f"{speedup:.2f}x (batch width "
              f"{stats.mean_batch_width:.0f})")
    assert speedup >= 3.0


def test_keepalive_transport_delta(capsys):
    """Connection reuse: N small requests over one pooled keep-alive
    connection vs a fresh TCP connection per request.  Matters for the
    fleet, whose coordinator/client/worker hops are all small requests
    — the polling control plane must not pay a handshake per poll."""
    requests = 400

    def _stub_runner(spec):
        return {"results": {job["id"]: {"stub": True}
                            for job in spec["jobs"]},
                "counters": {}}

    service = EvalService(workers=0, batch_window=0.0,
                          runner=_stub_runner).start()
    server, _thread = start_http(service)
    base_url = "http://%s:%s" % server.server_address[:2]
    try:
        # -- pooled: one persistent connection for all requests --------
        pooled = ServeClient(base_url)
        pooled.healthz()  # open the connection outside the timed loop
        start = time.perf_counter()
        for _ in range(requests):
            pooled.healthz()
        pooled_seconds = time.perf_counter() - start
        assert pooled.transport_stats["connections_opened"] == 1

        # -- cold: a fresh connection per request ----------------------
        cold = ServeClient(base_url)
        start = time.perf_counter()
        for _ in range(requests):
            cold.healthz()
            cold.close()  # drop the pool: next call reconnects
        cold_seconds = time.perf_counter() - start
        assert cold.transport_stats["connections_opened"] == requests
    finally:
        service.stop(drain=False)
        server.shutdown()

    delta = cold_seconds / pooled_seconds
    RESULTS["transport"] = {
        "requests": requests,
        "pooled_seconds": pooled_seconds,
        "per_connection_seconds": cold_seconds,
        "keepalive_speedup": delta,
        "pooled_rps": requests / pooled_seconds,
        "per_connection_rps": requests / cold_seconds,
    }
    with capsys.disabled():
        print(f"\n{requests} requests: pooled {pooled_seconds:.3f}s "
              f"({requests / pooled_seconds:.0f}/s) vs per-connection "
              f"{cold_seconds:.3f}s -> {delta:.2f}x")
    assert delta >= 1.1  # reuse must never be slower
