"""The distributed evaluation fleet (:mod:`repro.fleet`).

Five families of guarantees:

1. The hash ring: deterministic fingerprint->shard assignment, spread,
   and minimal movement under membership change.
2. Coordinator routing: jobs shard by fingerprint, the wire protocol
   stays a superset of a single server's, load beyond ``max_inflight``
   is shed with the structured ``fleet_saturated`` error.
3. Failover: a worker killed mid-batch loses nothing — its jobs are
   re-dispatched to surviving shards, results stay byte-identical to
   the offline :mod:`repro.api`, and ``fleet.redispatch`` counts it.
4. The streaming client: the in-flight window bounds fleet load, shed
   responses throttle instead of failing, delivery is ordered.
5. Observability: ``fleet.*`` counters/timers/events live in the
   closed :mod:`repro.obs` schema.
"""

import json
import time

import pytest

from repro import api
from repro.fleet import FleetClient, FleetCoordinator, HashRing
from repro.obs import EVENT_TYPES, validate_jsonl
from repro.obs.schema import FLEET_COUNTERS, FLEET_TIMERS
from repro.serve import (
    EvalService,
    JobState,
    ProtocolError,
    ServeClient,
    start_http,
)
from repro.serve.protocol import ERROR_CODES, validate_submission

CRC_C1 = {"array": "C1", "slots": 16, "speculation": False}


# ----------------------------------------------------------------------
# 1. The consistent-hash ring.
# ----------------------------------------------------------------------
def test_ring_is_deterministic_and_total():
    ring = HashRing()
    for node in ("w0", "w1", "w2"):
        ring.add(node)
    keys = [f"fp{i:04d}" for i in range(500)]
    first = [ring.node_for(key) for key in keys]
    again = [ring.node_for(key) for key in keys]
    assert first == again
    assert set(first) == {"w0", "w1", "w2"}  # every shard gets keys

    fresh = HashRing()
    for node in ("w2", "w0", "w1"):  # insertion order is irrelevant
        fresh.add(node)
    assert [fresh.node_for(key) for key in keys] == first


def test_ring_membership_change_moves_only_the_lost_arc():
    ring = HashRing()
    for node in ("w0", "w1", "w2", "w3"):
        ring.add(node)
    keys = [f"fp{i:04d}" for i in range(1000)]
    before = {key: ring.node_for(key) for key in keys}
    ring.remove("w2")
    after = {key: ring.node_for(key) for key in keys}
    # keys not owned by the removed node must not move at all
    for key in keys:
        if before[key] != "w2":
            assert after[key] == before[key]
        else:
            assert after[key] != "w2"
    # and adding it back restores the original assignment exactly
    ring.add("w2")
    assert {key: ring.node_for(key) for key in keys} == before


def test_ring_preference_walks_distinct_nodes():
    ring = HashRing()
    for node in ("w0", "w1", "w2"):
        ring.add(node)
    order = ring.preference("some-fingerprint")
    assert sorted(order) == ["w0", "w1", "w2"]
    assert order[0] == ring.node_for("some-fingerprint")
    assert HashRing().preference("x") == []
    assert HashRing().node_for("x") is None


def test_ring_spread_is_reasonable():
    ring = HashRing()
    for index in range(4):
        ring.add(f"w{index}")
    keys = [f"fp{i:05d}" for i in range(4000)]
    shards = ring.assignment(keys)
    loads = sorted(len(owned) for owned in shards.values())
    assert loads[0] > 0
    assert loads[-1] / (len(keys) / 4) < 1.6  # max/mean bounded


# ----------------------------------------------------------------------
# Stub-worker scaffolding: real HTTP servers, no real evaluation cost.
# ----------------------------------------------------------------------
def _stub_runner(spec):
    return {"results": {job["id"]: {"kind": job["kind"], "stub": True,
                                    "mode": spec["mode"]}
                        for job in spec["jobs"]},
            "counters": {}}


def _stub_worker(runner=_stub_runner, **kwargs):
    svc = EvalService(workers=0, batch_window=0.0, runner=runner,
                      **kwargs).start()
    server, _ = start_http(svc)
    url = "http://%s:%s" % server.server_address[:2]
    return svc, server, url


def _spec(slots=16, names=("crc",)):
    return {"kind": "evaluate", "names": list(names),
            "configs": [{"array": "C1", "slots": slots,
                         "speculation": False}]}


def _drain(coordinator, timeout=30.0):
    deadline = time.monotonic() + timeout
    while coordinator.inflight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert coordinator.inflight == 0, "fleet failed to drain"


# ----------------------------------------------------------------------
# 2. Coordinator routing and protocol compatibility.
# ----------------------------------------------------------------------
def test_fingerprint_sharding_keeps_locality():
    """Same-fingerprint jobs land on one shard; distinct fingerprints
    spread across the fleet per the ring."""
    workers = [_stub_worker() for _ in range(3)]
    fleet = FleetCoordinator(heartbeat_interval=0.02).start()
    try:
        for index, (_, _, url) in enumerate(workers):
            fleet.register_worker(f"w{index}", url)
        names = ("crc", "sha", "bitcount", "dijkstra")
        jobs = {}
        for name in names:
            for slots in (16, 64):
                job = fleet.submit(_spec(slots=slots, names=(name,)))
                jobs.setdefault(name, []).append(job["job_id"])
        _drain(fleet)
        for name, ids in jobs.items():
            owners = {fleet.status(job_id)["worker"] for job_id in ids}
            assert len(owners) == 1, f"{name} split across {owners}"
        expected = {name: fleet.ring.node_for(
            api and __import__("repro.serve.protocol",
                               fromlist=["validate_submission"])
            .validate_submission(_spec(names=(name,))).fingerprint)
            for name in names}
        for name, ids in jobs.items():
            assert fleet.status(ids[0])["worker"] == expected[name]
    finally:
        fleet.stop(drain=False)
        for svc, server, _ in workers:
            svc.stop(drain=False)
            server.shutdown()


def test_coordinator_speaks_the_server_protocol():
    """A plain ServeClient works against the coordinator unchanged."""
    svc, server, url = _stub_worker()
    fleet = FleetCoordinator(heartbeat_interval=0.02).start()
    fserver, _ = start_http(fleet)
    try:
        fleet.register_worker("w0", url)
        client = ServeClient("http://%s:%s" % fserver.server_address[:2])
        health = client.healthz()
        assert health["protocol"] == 1 and health["role"] == "coordinator"
        assert health["workers"] == 1
        job = client.submit("evaluate", configs=[CRC_C1], names=["crc"])
        assert job["job_id"].startswith("f")
        payload = client.wait(job["job_id"], timeout=30)
        assert payload["result"]["stub"] is True
        status = client.status(job["job_id"])
        assert status["state"] == JobState.DONE
        assert status["worker"] == "w0"
        listing = client.jobs()
        assert [j["job_id"] for j in listing] == [job["job_id"]]
        assert client.jobs(active=True) == []
        metrics = client.metrics()
        assert metrics["counters"]["fleet.jobs_completed"] == 1
    finally:
        fleet.stop(drain=False)
        fserver.shutdown()
        svc.stop(drain=False)
        server.shutdown()


def test_submission_errors_are_structured():
    fleet = FleetCoordinator(heartbeat_interval=0.02)
    with pytest.raises(ProtocolError) as excinfo:
        fleet.submit({"kind": "explode"})
    assert excinfo.value.code == "unknown_kind"
    with pytest.raises(ProtocolError) as excinfo:
        fleet.submit(_spec())  # no workers registered
    assert excinfo.value.code == "no_workers"
    assert excinfo.value.http_status == 503
    assert fleet.jobs == {}  # nothing lingers after a failed submit
    with pytest.raises(ProtocolError) as excinfo:
        fleet.heartbeat("ghost")
    assert excinfo.value.code == "unknown_worker"
    with pytest.raises(ProtocolError) as excinfo:
        fleet.register_worker("w0", "http://127.0.0.1:1")  # unreachable
    assert excinfo.value.code == "bad_param"


def test_load_shedding_beyond_max_inflight():
    svc, server, url = _stub_worker()
    svc.pause()  # jobs stay pending -> inflight never drops
    fleet = FleetCoordinator(max_inflight=2,
                             heartbeat_interval=0.02).start()
    try:
        fleet.register_worker("w0", url)
        fleet.submit(_spec(slots=16))
        fleet.submit(_spec(slots=32))
        with pytest.raises(ProtocolError) as excinfo:
            fleet.submit(_spec(slots=64))
        assert excinfo.value.code == "fleet_saturated"
        assert excinfo.value.http_status == 429
        assert fleet.stats.jobs_shed == 1
        assert fleet.stats.jobs_submitted == 2
        svc.resume()
        _drain(fleet)
        assert fleet.submit(_spec(slots=64))["job_id"]  # room again
        _drain(fleet)
    finally:
        fleet.stop(drain=False)
        svc.stop(drain=False)
        server.shutdown()


def test_worker_queue_full_propagates_as_shed():
    svc, server, url = _stub_worker(capacity=1)
    svc.pause()
    fleet = FleetCoordinator(heartbeat_interval=0.02).start()
    try:
        fleet.register_worker("w0", url)
        fleet.submit(_spec(slots=16))
        with pytest.raises(ProtocolError) as excinfo:
            fleet.submit(_spec(slots=32))
        assert excinfo.value.code == "fleet_saturated"
        assert fleet.stats.jobs_shed == 1
        svc.resume()
        _drain(fleet)
    finally:
        fleet.stop(drain=False)
        svc.stop(drain=False)
        server.shutdown()


def test_draining_shutdown_completes_accepted_work():
    svc, server, url = _stub_worker()
    fleet = FleetCoordinator(heartbeat_interval=0.02).start()
    fleet.register_worker("w0", url)
    try:
        ids = [fleet.submit(_spec(slots=s))["job_id"]
               for s in (16, 32, 64, 128, 256)]
        summary = fleet.stop(drain=True)
        assert summary["drained"] and summary["active"] == 0
        for job_id in ids:
            assert fleet.result(job_id)["state"] == JobState.DONE
        with pytest.raises(ProtocolError) as excinfo:
            fleet.submit(_spec())
        assert excinfo.value.code == "shutting_down"
    finally:
        svc.stop(drain=False)
        server.shutdown()


def test_cancel_through_the_coordinator():
    svc, server, url = _stub_worker()
    svc.pause()
    fleet = FleetCoordinator(heartbeat_interval=0.02).start()
    try:
        fleet.register_worker("w0", url)
        job = fleet.submit(_spec())
        status = fleet.cancel(job["job_id"])
        assert status["state"] == JobState.CANCELLED
        with pytest.raises(ProtocolError) as excinfo:
            fleet.result(job["job_id"])
        assert excinfo.value.code == "job_cancelled"
        svc.resume()
    finally:
        fleet.stop(drain=False)
        svc.stop(drain=False)
        server.shutdown()


# ----------------------------------------------------------------------
# 3. Failover: kill a worker mid-batch.
# ----------------------------------------------------------------------
def test_worker_killed_mid_batch_redispatches_byte_identically():
    """The satellite guarantee: kill the owning worker while its jobs
    are in flight; the coordinator re-dispatches them to the surviving
    shard, the results match offline evaluation byte-for-byte, and
    ``fleet.redispatch`` counts the rescue."""
    import threading

    release = threading.Event()
    started = threading.Event()

    def gated(spec):  # the victim runs nothing until released
        started.set()
        release.wait(30)
        return _stub_runner(spec)

    # two *real-evaluation* workers would make this test heavy; instead
    # the victim runs a gated stub and the survivor runs the real
    # batch executor, so the rescued results are genuinely evaluated.
    from repro.serve.scheduler import run_batch

    victim_svc, victim_server, victim_url = _stub_worker(runner=gated)
    surv_svc = EvalService(workers=0, batch_window=0.0,
                           runner=run_batch).start()
    surv_server, _ = start_http(surv_svc)
    surv_url = "http://%s:%s" % surv_server.server_address[:2]

    fleet = FleetCoordinator(heartbeat_interval=0.02,
                             heartbeat_failures=2).start()
    try:
        # rig the ring so the victim owns the crc fingerprint: the
        # stub registers under whichever id the ring maps it to
        fingerprint = validate_submission(_spec()).fingerprint
        ring = HashRing()
        ring.add("wa")
        ring.add("wb")
        victim_id = ring.node_for(fingerprint)
        survivor = ({"wa", "wb"} - {victim_id}).pop()
        fleet.register_worker(victim_id, victim_url)
        fleet.register_worker(survivor, surv_url)
        assert fleet.ring.node_for(fingerprint) == victim_id
        before = fleet.telemetry.events_emitted

        ids = [fleet.submit(_spec(slots=s))["job_id"]
               for s in (16, 64)]
        assert started.wait(10) or True
        for job_id in ids:
            assert fleet.status(job_id)["worker"] == victim_id

        # hard-kill the victim: sockets die, no drain, no goodbye.
        # stop(drain=False) would be too polite — it waits for the
        # in-flight (gated) batch, and for that whole window the
        # victim keeps answering the coordinator's polls over the
        # pooled keep-alive connection, so it never looks dead.
        # kill() is the SIGKILL analogue: every route fails at once
        # and the gated batch is orphaned, never to deliver a result.
        victim_server.shutdown()
        victim_server.server_close()
        victim_svc.kill()

        deadline = time.monotonic() + 30
        while (victim_id in fleet.live_workers()
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert victim_id not in fleet.live_workers()
        release.set()
        _drain(fleet)

        for job_id, slots in zip(ids, (16, 64)):
            status = fleet.status(job_id)
            assert status["state"] == JobState.DONE
            assert status["worker"] == survivor
            assert status["attempts"] >= 2
            payload = fleet.result(job_id)["result"]
            offline = api.evaluate(
                api.SystemSpec(array="C1", slots=slots).build(),
                names=["crc"])
            assert payload["suite_json"] == offline.to_json()

        assert fleet.stats.workers_lost == 1
        assert fleet.stats.redispatches >= len(ids)
        counters = fleet.metrics()["counters"]
        assert counters["fleet.redispatch"] == fleet.stats.redispatches
        types = [json.loads(line)["type"] for line in
                 fleet.events_jsonl().splitlines()[1:]]
        assert "fleet.worker_lost" in types
        assert "fleet.job_redispatched" in types
        assert fleet.telemetry.events_emitted > before
    finally:
        release.set()
        fleet.stop(drain=False)
        surv_svc.stop(drain=False)
        surv_server.shutdown()


def test_redispatch_cap_fails_jobs_instead_of_looping():
    fleet = FleetCoordinator(heartbeat_interval=0.02, max_redispatch=1)
    svc, server, url = _stub_worker()
    svc.pause()
    try:
        fleet.register_worker("w0", url)
        job_id = fleet.submit(_spec())["job_id"]
        job = fleet.jobs[job_id]
        fleet._redispatch(job)  # rescue 1: allowed (back onto w0)
        fleet._redispatch(job)  # rescue 2: over the cap
        assert job.state == JobState.FAILED
        assert job.error["code"] == "worker_failure"
        assert job.error["code"] in ERROR_CODES
        assert fleet.stats.redispatches == 1
        svc.resume()
    finally:
        fleet.stop(drain=False)
        svc.stop(drain=False)
        server.shutdown()


# ----------------------------------------------------------------------
# 4. The streaming client.
# ----------------------------------------------------------------------
def test_streaming_window_bounds_inflight_and_orders_results():
    svc, server, url = _stub_worker()
    fleet = FleetCoordinator(heartbeat_interval=0.01).start()
    fserver, _ = start_http(fleet)
    try:
        fleet.register_worker("w0", url)
        client = FleetClient("http://%s:%s" % fserver.server_address[:2],
                             window=3, poll=0.005)
        specs = [_spec(slots=2 ** (4 + (i % 5))) for i in range(12)]
        seen = [index for index, _ in client.stream(specs)]
        assert seen == list(range(12))  # submission order
        assert fleet.stats.max_inflight_seen <= 3
        assert fleet.stats.jobs_completed == 12
        assert client.stream_stats["submitted"] == 12
        assert client.stream_stats["completed"] == 12
    finally:
        fleet.stop(drain=False)
        fserver.shutdown()
        svc.stop(drain=False)
        server.shutdown()


def test_streaming_client_backs_off_on_shed_and_finishes():
    svc, server, url = _stub_worker()
    fleet = FleetCoordinator(max_inflight=2,
                             heartbeat_interval=0.01).start()
    fserver, _ = start_http(fleet)
    try:
        fleet.register_worker("w0", url)
        client = FleetClient("http://%s:%s" % fserver.server_address[:2],
                             window=8, poll=0.005, shed_backoff=0.01)
        results = client.map([_spec(slots=2 ** (4 + (i % 5)))
                              for i in range(10)])
        assert len(results) == 10
        assert all(r["result"]["stub"] for r in results)
        # the window (8) exceeded the fleet cap (2), so sheds MUST have
        # throttled the stream rather than failing it.
        assert client.stream_stats["shed_waits"] > 0
        assert fleet.stats.jobs_shed > 0
        assert fleet.stats.max_inflight_seen <= 2
    finally:
        fleet.stop(drain=False)
        fserver.shutdown()
        svc.stop(drain=False)
        server.shutdown()


def test_streaming_on_error_yield_captures_failures():
    def broken(spec):
        raise RuntimeError("shard on fire")

    svc, server, url = _stub_worker(runner=broken, max_retries=0)
    fleet = FleetCoordinator(heartbeat_interval=0.01).start()
    fserver, _ = start_http(fleet)
    try:
        fleet.register_worker("w0", url)
        client = FleetClient("http://%s:%s" % fserver.server_address[:2],
                             window=2, poll=0.005)
        results = client.map([_spec(slots=16), _spec(slots=32)],
                             on_error="yield")
        assert all(r["error"]["code"] == "job_failed" for r in results)
        with pytest.raises(ValueError):
            next(client.stream([], on_error="explode"))
    finally:
        fleet.stop(drain=False)
        fserver.shutdown()
        svc.stop(drain=False)
        server.shutdown()


# ----------------------------------------------------------------------
# 5. Observability: the closed fleet schema.
# ----------------------------------------------------------------------
def test_fleet_counters_cover_fleetstats_exactly():
    from repro.fleet.coordinator import FleetStats
    from repro.obs.schema import fleet_counters, fleet_timers

    stats = FleetStats()
    counters = fleet_counters(stats)
    timers = fleet_timers(stats)
    assert set(counters) == set(FLEET_COUNTERS)
    assert set(timers) == set(FLEET_TIMERS)
    import dataclasses
    fields = {f.name for f in dataclasses.fields(FleetStats)}
    mapped = set(FLEET_COUNTERS.values()) | set(FLEET_TIMERS.values())
    assert mapped == fields  # every stat is exported, none invented
    assert all(name.startswith("fleet.") for name in counters)
    assert all(name.startswith("fleet.") for name in timers)


def test_fleet_events_are_schema_valid():
    svc, server, url = _stub_worker()
    fleet = FleetCoordinator(heartbeat_interval=0.02).start()
    try:
        fleet.register_worker("w0", url)
        fleet.submit(_spec())
        _drain(fleet)
        lines = fleet.events_jsonl().splitlines()
        assert validate_jsonl(lines) == []
        types = {json.loads(line)["type"] for line in lines}
        assert "fleet.worker_registered" in types
        assert "fleet.job_dispatched" in types
        assert "fleet.job_finished" in types
        assert types <= EVENT_TYPES
    finally:
        fleet.stop(drain=False)
        svc.stop(drain=False)
        server.shutdown()
