"""The synthetic workload corpus (:mod:`repro.corpus`).

Five families of guarantees:

1. Determinism: the same ``(seed, knobs)`` yields byte-identical
   sources, manifests and assembled-image fingerprints — in-process and
   across independent interpreter processes with different hash seeds.
2. Self-checking: every generated kernel verifies its own checksum at
   generation time, a corrupted expectation makes the kernel exit 1,
   and a drifted generator refuses a stale manifest.
3. Registry integration: corpus kernels register as ordinary workloads
   (suite/sweep/serve consume them unchanged), registration is
   idempotent, collisions raise, and the ``REPRO_CORPUS`` environment
   variable propagates corpora into fresh registry views.
4. The differential guarantee: a generated corpus evaluates
   byte-identically through the event replay engine, the columnar
   replay engine, an inline serve service and a real two-worker fleet.
5. Observability: the ``corpus.*`` counters/timers/events live in the
   closed :mod:`repro.obs` schema.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from tests.oracle import event_matrix
from repro.corpus import (
    Corpus,
    CorpusKnobs,
    GenerationError,
    ManifestError,
    PROFILES,
    draw_kernel_knobs,
    draw_manifest_knobs,
    encoding_fingerprint,
    generate_corpus,
    generate_kernel,
    generate_source,
    kernel_name,
    kernel_seed,
    load_manifest,
    rebuild_kernel_source,
    register_corpus,
)
from repro.corpus.manifest import CorpusStats
from repro.obs import EVENT_TYPES, Telemetry, validate_jsonl
from repro.workloads import (
    CORPUS_ENV,
    get_workload,
    unregister_generated,
    workload_names,
)

SEED = 7
GOLDEN = Path(__file__).parent / "data" / "corpus_smoke_manifest.json"

C2_64 = {"array": "C2", "slots": 64, "speculation": True}


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with only the 18 built-ins."""
    unregister_generated()
    yield
    unregister_generated()


@pytest.fixture(scope="module")
def corpus24():
    """One 24-kernel corpus shared by the expensive integration tests."""
    return generate_corpus(SEED, 24)


# ----------------------------------------------------------------------
# 1. Determinism.
# ----------------------------------------------------------------------
def test_generation_is_deterministic_in_process(corpus24):
    again = generate_corpus(SEED, 24)
    assert again.manifest_json() == corpus24.manifest_json()
    for a, b in zip(again.kernels, corpus24.kernels):
        assert a.source == b.source
        assert a.encoding_sha256 == b.encoding_sha256 \
            == encoding_fingerprint(a.source)


def test_source_regenerable_from_seed_index_knobs_checksum(corpus24):
    """Manifests store no sources; (seed, index, knobs, checksum)
    rebuilds each kernel byte-identically."""
    for kernel in corpus24.kernels[:6]:
        rebuilt = generate_source(SEED, kernel.index, kernel.knobs,
                                  expected=kernel.checksum)
        assert rebuilt == kernel.source


def test_corpus_determinism_across_processes():
    """The satellite property: two independent interpreter processes
    with different PYTHONHASHSEED values emit byte-identical manifests
    — no draw anywhere depends on hash iteration order."""
    script = ("import sys; from repro.corpus import generate_corpus; "
              "sys.stdout.write(generate_corpus(5, 6).manifest_json())")
    outputs = []
    for hash_seed in ("1", "99"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        env.pop(CORPUS_ENV, None)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["version"] == 1 and payload["count"] == 6
    # and the in-process generator agrees with both subprocesses
    assert generate_corpus(5, 6).manifest_json() == outputs[0]


def test_knob_draws_respect_ranges_and_quantisation():
    knobs = CorpusKnobs.mixed()
    for index in range(64):
        draw = draw_kernel_knobs(SEED, index, knobs)
        assert knobs.block_size[0] <= draw.block_size <= knobs.block_size[1]
        assert knobs.ilp[0] <= draw.ilp <= knobs.ilp[1]
        assert draw.mem_stride in knobs.strides
        assert draw.pool_words in knobs.pool_words
        # fractions are sixteenth-quantised so floats stay exact
        for fraction in (draw.branch_bias, draw.predictability,
                         draw.mem_intensity, draw.mult_weight):
            assert (fraction * 16) == int(fraction * 16)
        assert len(draw.trips) == draw.loop_depth
    assert draw_manifest_knobs(SEED, 8) \
        == [draw_kernel_knobs(SEED, i, knobs) for i in range(8)]


def test_kernel_seeds_are_distinct_and_stable():
    seeds = [kernel_seed(SEED, index) for index in range(256)]
    assert len(set(seeds)) == 256
    assert kernel_seed(3, 1) != kernel_seed(1, 3)


def test_profiles_shift_the_category_mix():
    assert PROFILES == sorted(["mixed", "dataflow", "control", "memory",
                               "loopy", "divergent"])
    dataflow = generate_corpus(11, 8, knobs=CorpusKnobs.dataflow())
    control = generate_corpus(11, 8, knobs=CorpusKnobs.control())
    assert sum(k.category == "dataflow" for k in dataflow.kernels) \
        > sum(k.category == "dataflow" for k in control.kernels)
    assert sum(k.category == "control" for k in control.kernels) \
        > sum(k.category == "control" for k in dataflow.kernels)


def test_dynflow_profiles_stress_their_modes():
    """``loopy`` kernels loop hard with predictable control; ``divergent``
    kernels branch hard with unpredictable control."""
    loopy = generate_corpus(11, 8, knobs=CorpusKnobs.loopy())
    divergent = generate_corpus(11, 8, knobs=CorpusKnobs.divergent())
    for kernel in loopy.kernels:
        assert min(kernel.knobs.trips) >= 2
        assert kernel.knobs.diamonds <= 1
        assert kernel.knobs.predictability >= 0.75
    for kernel in divergent.kernels:
        assert kernel.knobs.diamonds >= 3
        assert kernel.knobs.predictability <= 0.25
        assert 6 / 16 <= kernel.knobs.branch_bias <= 10 / 16
    assert sum(k.category == "control" for k in divergent.kernels) \
        > sum(k.category == "control" for k in loopy.kernels)


# ----------------------------------------------------------------------
# 2. Self-checking kernels and manifest integrity.
# ----------------------------------------------------------------------
def test_kernels_are_self_checking(corpus24):
    """The embedded check really fails on a wrong expectation."""
    from repro.asm import assemble
    from repro.sim import run_program

    kernel = corpus24.kernels[0]
    good = run_program(assemble(kernel.source), collect_trace=False)
    assert good.exit_code == 0
    assert good.output.strip() == f"0x{kernel.checksum:08x}"

    wrong = generate_source(SEED, kernel.index, kernel.knobs,
                            expected=(kernel.checksum ^ 1))
    bad = run_program(assemble(wrong), collect_trace=False)
    assert bad.exit_code == 1
    # the printed checksum is computed before the comparison, so it is
    # still the true one — that is what the learn pass relies on
    assert bad.output.strip() == f"0x{kernel.checksum:08x}"


def test_generation_failure_raises_with_kernel_name(monkeypatch):
    """A learn pass that prints anything but one checksum aborts."""
    class _Bogus:
        output = "not a checksum"
        exit_code = 0

    monkeypatch.setattr("repro.sim.run_program",
                        lambda *args, **kwargs: _Bogus)
    with pytest.raises(GenerationError, match="learn pass"):
        generate_kernel(SEED, 0)


def test_manifest_roundtrip_and_validation(tmp_path, corpus24):
    path = tmp_path / "corpus.json"
    corpus24.write(str(path))
    payload = load_manifest(str(path))
    assert payload == corpus24.manifest()

    for breakage in (
            {"version": 99},
            {"count": 3},  # kernel list no longer matches
    ):
        broken = dict(payload, **breakage)
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(broken))
        with pytest.raises(ManifestError):
            load_manifest(str(bad))
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(ManifestError):
        load_manifest(str(scalar))


def test_stale_manifest_refuses_to_register(tmp_path, corpus24):
    """A manifest whose source hash no longer matches the generator is
    rejected instead of silently renaming a different program."""
    payload = corpus24.manifest()
    entry = dict(payload["kernels"][0])
    entry["source_sha256"] = hashlib.sha256(b"drifted").hexdigest()
    payload["kernels"] = [entry] + payload["kernels"][1:]
    with pytest.raises(ManifestError, match="drifted"):
        register_corpus(payload)
    with pytest.raises(ManifestError):
        rebuild_kernel_source(SEED, entry)


def test_golden_smoke_manifest_matches_generator():
    """The committed CI golden: 20 kernels, seed 20.  If the generator
    changes behaviour this fails — regenerate the golden deliberately
    with ``repro corpus generate --seed 20 --count 20 --out
    tests/data/corpus_smoke_manifest.json``."""
    golden = GOLDEN.read_text(encoding="utf-8")
    assert generate_corpus(20, 20).manifest_json() == golden


# ----------------------------------------------------------------------
# 3. Registry integration.
# ----------------------------------------------------------------------
def test_register_corpus_makes_ordinary_workloads(corpus24):
    names = register_corpus(corpus24)
    assert names == [kernel_name(SEED, i) for i in range(24)]
    assert set(names) <= set(workload_names())
    workload = get_workload(names[0])
    assert workload.kind == "asm"
    assert workload.category == corpus24.kernels[0].category
    # registration is idempotent; a different corpus colliding on a
    # name raises instead of silently replacing the program
    register_corpus(corpus24)
    from repro.workloads import Workload, register_workload
    with pytest.raises(ValueError, match="different content"):
        register_workload(Workload(
            name=names[0], paper_name=names[0], category="mid",
            source="__start:\n    li $v0, 10\n    syscall\n",
            kind="asm"))


def test_registered_kernels_run_and_accelerate(corpus24):
    names = register_corpus(corpus24)
    result = api.run(names[0], config=api.SystemSpec(array="C2").build())
    assert result.plain.exit_code == 0
    assert result.speedup > 1.0
    expected = f"0x{corpus24.kernels[0].checksum:08x}"
    assert result.plain.output.strip() == expected


def test_env_corpus_loads_into_fresh_registry_views(tmp_path, monkeypatch):
    corpus = generate_corpus(13, 3)
    path = tmp_path / "c13.json"
    corpus.write(str(path))
    monkeypatch.setenv(CORPUS_ENV, str(path))
    unregister_generated()  # forces the env value to be re-examined
    names = workload_names()
    assert [kernel_name(13, i) for i in range(3)] \
        == [n for n in names if n.startswith("c13k")]
    monkeypatch.delenv(CORPUS_ENV)
    unregister_generated()
    assert all(not n.startswith("c13k") for n in workload_names())


def test_register_from_manifest_equals_register_from_corpus(
        tmp_path, corpus24):
    path = tmp_path / "corpus.json"
    corpus24.write(str(path))
    from_manifest = register_corpus(load_manifest(str(path)))
    name = from_manifest[0]
    source_via_manifest = get_workload(name).source
    unregister_generated()
    register_corpus(corpus24)
    assert get_workload(name).source == source_via_manifest


# ----------------------------------------------------------------------
# 4. The differential guarantee: four execution paths, one answer.
# ----------------------------------------------------------------------
def test_corpus_byte_identical_across_engines_serve_and_fleet(corpus24):
    """Event replay, columnar replay, an inline serve service and a
    real two-worker fleet must all agree byte-for-byte on a generated
    corpus — the transparency bar the built-in workloads already meet,
    extended to synthetic ones."""
    from repro.fleet import FleetCoordinator
    from repro.serve import EvalService, ServeClient, start_http

    names = register_corpus(corpus24)
    config = api.SystemSpec(array="C2", slots=64,
                            speculation=True).build()

    event = event_matrix([config], names)
    columnar = api.sweep([config], names=names)
    assert event.results_json() == columnar.results_json()

    # Inline serve: one sweep job over the whole corpus.
    svc = EvalService(workers=0, cache_root=None, batch_window=0.0)
    svc.start()
    server, _ = start_http(svc)
    try:
        client = ServeClient("http://%s:%s" % server.server_address[:2],
                             timeout=300.0)
        job = client.submit("sweep", configs=[C2_64], names=names)
        payload = client.wait(job["job_id"], timeout=300)
        assert payload["state"] == "done"
        assert payload["result"]["matrix_json"] == event.results_json()
    finally:
        svc.stop(drain=False)
        server.shutdown()

    # A real two-worker fleet: per-kernel evaluate jobs shard across
    # both workers by fingerprint and still match offline evaluation.
    workers = []
    for _ in range(2):
        wsvc = EvalService(workers=0, cache_root=None, batch_window=0.0)
        wsvc.start()
        wserver, _ = start_http(wsvc)
        workers.append((wsvc, wserver,
                        "http://%s:%s" % wserver.server_address[:2]))
    fleet = FleetCoordinator(heartbeat_interval=0.05).start()
    fserver, _ = start_http(fleet)
    try:
        for index, (_, _, url) in enumerate(workers):
            fleet.register_worker(f"w{index}", url)
        fclient = ServeClient(
            "http://%s:%s" % fserver.server_address[:2], timeout=300.0)
        jobs = {name: fclient.submit("evaluate", configs=[C2_64],
                                     names=[name])["job_id"]
                for name in names}
        offline = {name: api.evaluate(config, names=[name]).to_json()
                   for name in names}
        for name, job_id in jobs.items():
            payload = fclient.wait(job_id, timeout=300)
            assert payload["state"] == "done", name
            assert payload["result"]["suite_json"] == offline[name], name
        # the corpus really sharded: both workers executed batches
        assert all(wsvc.stats.batches > 0 for wsvc, _, _ in workers)
    finally:
        fleet.stop(drain=False)
        fserver.shutdown()
        for wsvc, wserver, _ in workers:
            wsvc.stop(drain=False)
            wserver.shutdown()


# ----------------------------------------------------------------------
# 5. Observability: the corpus.* namespace is closed and populated.
# ----------------------------------------------------------------------
def test_corpus_namespace_events_are_closed():
    corpus_types = {t for t in EVENT_TYPES if t.startswith("corpus.")}
    assert corpus_types == {"corpus.kernel_generated",
                            "corpus.manifest_written",
                            "corpus.registered"}
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        tel.emit("corpus.kernel_exploded", name="c0k000")


def test_corpus_collectors_map_stats_onto_schema(tmp_path):
    from repro.obs.schema import (
        CORPUS_COUNTERS,
        CORPUS_TIMERS,
        corpus_counters,
        corpus_timers,
    )

    stats = CorpusStats()
    tel = Telemetry()
    corpus = generate_corpus(3, 2, telemetry=tel, stats=stats)
    corpus.write(str(tmp_path / "c3.json"), telemetry=tel)
    register_corpus(corpus, telemetry=tel, stats=stats)
    assert stats.kernels_generated == 2
    assert stats.kernels_verified == 2
    assert stats.kernels_registered == 2
    assert stats.verify_failures == 0
    assert stats.dynamic_instructions \
        == sum(k.instructions for k in corpus.kernels)
    counters = corpus_counters(stats)
    assert counters["corpus.kernels_generated"] == 2
    assert corpus_timers(stats)["corpus.generate_seconds"] \
        == stats.generate_seconds
    for mapping in (CORPUS_COUNTERS, CORPUS_TIMERS):
        for name, attr in mapping.items():
            assert name.startswith("corpus.")
            assert hasattr(stats, attr)
    # the emitted stream is schema-valid end to end
    path = tmp_path / "corpus_events.jsonl"
    tel.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert validate_jsonl(lines) == []
    types = {json.loads(line)["type"] for line in lines}
    assert {"corpus.kernel_generated", "corpus.manifest_written",
            "corpus.registered"} <= types
