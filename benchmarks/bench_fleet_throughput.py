"""Fleet throughput: a skewed 500-job burst, 1 vs 2 vs 4 worker shards.

Not a paper experiment — this bench guards the acceptance bar of the
distributed evaluation fleet (:mod:`repro.fleet`):

- a 500-job burst, Zipf-skewed over 12 workloads (heavy-hitter
  workloads dominate, as real campaign traffic does), is driven through
  the streaming client three ways: straight into one worker, and
  through a fingerprint-sharding coordinator over 2 and 4 worker
  processes sharing one scoped artifact store;
- every result must be byte-identical to its offline
  :func:`repro.api.evaluate` counterpart, every fingerprint must be
  served by exactly one shard (locality), and nothing may be lost or
  re-dispatched along the way.

The issue's throughput bar — >=2.5x over the single server at 4
workers — is a *parallelism* bar: worker shards are separate processes
whose replays overlap on separate cores.  It is therefore asserted
whenever the host offers >= 4 usable cores.  On smaller hosts the same
measurement runs, but physics caps the achievable ratio (four
CPU-bound processes on one core cannot beat one), so the assertion
degrades to a documented overhead bound: sharding must stay within
40% of single-server throughput even with zero parallelism to exploit.
``BENCH_fleet.json`` records the host parallelism alongside every
wall-clock so the trajectory is comparable across machines.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import api
from repro.fleet import FleetClient, FleetCoordinator, spawn_fleet
from repro.fleet.coordinator import start_fleet_http
from repro.fleet.local import spawn_worker
from repro.serve import ServeClient

#: moderate-cost workloads (the susan/patricia/rawaudio traces are an
#: order of magnitude heavier and would drown the scheduling signal).
WORKLOADS = ["crc", "sha", "gsm_e", "jpeg_e", "jpeg_d", "rijndael_e",
             "gsm_d", "bitcount", "stringsearch", "dijkstra",
             "rijndael_d", "quicksort"]

JOBS = 500
WINDOW = 32

ARRAYS = ("C1", "C2", "C3")
SLOTS = (16, 32, 64, 128, 256, 512, 1024, 2048)

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_fleet.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


def make_burst(jobs=JOBS):
    """The skewed burst: workload rank r gets ~1/r of the traffic
    (Zipf), each job carrying one config from a rotating grid."""
    weights = [1.0 / rank for rank in range(1, len(WORKLOADS) + 1)]
    scale = jobs / sum(weights)
    counts = [max(1, round(weight * scale)) for weight in weights]
    while sum(counts) > jobs:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < jobs:
        counts[-1] += 1
    burst = []
    for name, count in zip(WORKLOADS, counts):
        for index in range(count):
            config = {"array": ARRAYS[index % len(ARRAYS)],
                      "slots": SLOTS[index % len(SLOTS)],
                      "speculation": bool(index % 2)}
            burst.append({"kind": "evaluate", "names": [name],
                          "fast": True, "configs": [config]})
    return burst


def _drive(client, burst):
    """Stream the burst; returns (wall_seconds, ordered result payloads)."""
    start = time.perf_counter()
    payloads = client.map(burst, timeout=1200)
    return time.perf_counter() - start, payloads


def _worker_metrics(url):
    client = ServeClient(url, timeout=60.0)
    counters = client.metrics()["counters"]
    return {key: counters.get(key, 0)
            for key in ("serve.batches", "serve.batched_jobs",
                        "serve.jobs_completed")}


def run_single(burst, cache_root):
    worker = spawn_worker("solo", cache_root=str(cache_root),
                          scoped_cache=True)
    try:
        wall, payloads = _drive(FleetClient(worker.url, window=WINDOW,
                                            timeout=1200.0), burst)
        metrics = _worker_metrics(worker.url)
        return wall, payloads, {"workers": 1, "per_worker": [metrics]}
    finally:
        worker.terminate()


def run_fleet(burst, cache_root, shards):
    fleet = FleetCoordinator(max_inflight=4 * WINDOW,
                             heartbeat_interval=0.25)
    workers = spawn_fleet(fleet, shards, cache_root=str(cache_root))
    fleet.start()
    server, thread = start_fleet_http(fleet)
    try:
        url = "http://%s:%s" % server.server_address[:2]
        wall, payloads = _drive(FleetClient(url, window=WINDOW,
                                            timeout=1200.0), burst)
        per_worker = [_worker_metrics(worker.url) for worker in workers]
        # locality: one owner shard per fingerprint, nothing lost
        owners = {}
        for job in fleet.job_listing():
            owners.setdefault(job["fingerprint"], set()).add(job["worker"])
        assert all(len(shard) == 1 for shard in owners.values()), owners
        assert fleet.stats.redispatches == 0
        assert fleet.stats.jobs_completed == len(burst)
        detail = {"workers": shards, "per_worker": per_worker,
                  "fingerprints": len(owners),
                  "jobs_per_shard": sorted(
                      sum(1 for job in fleet.job_listing()
                          if job["worker"] == worker.id)
                      for worker in workers),
                  "forwards": fleet.stats.forwards,
                  "sheds": fleet.stats.jobs_shed}
        return wall, payloads, detail
    finally:
        fleet.stop(drain=False)
        server.shutdown()
        thread.join(5.0)
        for worker in workers:
            worker.terminate()


def test_fleet_throughput_and_byte_identity(tmp_path, capsys):
    burst = make_burst()
    assert len(burst) == JOBS

    # offline ground truth, one evaluation per distinct cell
    offline = {}
    for spec in burst:
        name = spec["names"][0]
        cfg = spec["configs"][0]
        cell = (name, cfg["array"], cfg["slots"], cfg["speculation"])
        if cell not in offline:
            config = api.SystemSpec(
                array=cfg["array"], slots=cfg["slots"],
                speculation=cfg["speculation"]).build()
            offline[cell] = api.evaluate(config, names=[name],
                                         fast=True).to_json()

    runs = {}
    wall, payloads, detail = run_single(burst, tmp_path / "solo")
    runs["single"] = (wall, payloads, detail)
    wall, payloads, detail = run_fleet(burst, tmp_path / "fleet2", 2)
    runs["fleet2"] = (wall, payloads, detail)
    wall, payloads, detail = run_fleet(burst, tmp_path / "fleet4", 4)
    runs["fleet4"] = (wall, payloads, detail)

    # transparency: every topology, every job, byte-identical
    for label, (_, payloads, _) in runs.items():
        assert len(payloads) == JOBS, label
        for spec, payload in zip(burst, payloads):
            cfg = spec["configs"][0]
            cell = (spec["names"][0], cfg["array"], cfg["slots"],
                    cfg["speculation"])
            assert payload["result"]["suite_json"] == offline[cell], \
                (label, cell)

    cores = len(os.sched_getaffinity(0))
    single_wall = runs["single"][0]
    speedup2 = single_wall / runs["fleet2"][0]
    speedup4 = single_wall / runs["fleet4"][0]
    # the issue's bar needs >= 4 cores; below that, assert the
    # overhead bound (see module docstring).
    bar4 = 2.5 if cores >= 4 else (1.3 if cores >= 2 else 0.6)

    RESULTS.update({
        "jobs": JOBS,
        "workloads": WORKLOADS,
        "window": WINDOW,
        "host_cores": cores,
        "issue_bar_applies": cores >= 4,
        "applied_bar_4_workers": bar4,
        "single_seconds": single_wall,
        "fleet2_seconds": runs["fleet2"][0],
        "fleet4_seconds": runs["fleet4"][0],
        "single_jobs_per_second": JOBS / single_wall,
        "fleet2_jobs_per_second": JOBS / runs["fleet2"][0],
        "fleet4_jobs_per_second": JOBS / runs["fleet4"][0],
        "speedup_2_workers": speedup2,
        "speedup_4_workers": speedup4,
        "detail": {label: detail
                   for label, (_, _, detail) in runs.items()},
    })
    with capsys.disabled():
        print(f"\n{JOBS}-job skewed burst on {cores} core(s): "
              f"single {single_wall:.1f}s, "
              f"2 workers {runs['fleet2'][0]:.1f}s ({speedup2:.2f}x), "
              f"4 workers {runs['fleet4'][0]:.1f}s ({speedup4:.2f}x) "
              f"[bar {bar4}x]")
    assert speedup4 >= bar4
