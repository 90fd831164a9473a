"""The unified telemetry subsystem (:mod:`repro.obs`).

Two families of guarantees:

1. The telemetry objects themselves — counters, timers, the bounded
   event stream, snapshot/diff, JSONL round-trips.
2. The non-interference contract — every instrumented number (cycle
   counts, suite/sweep JSON) is byte-identical with telemetry enabled
   or disabled, serial or parallel.
"""

import json

import pytest

from repro.dim.params import DimParams
from repro.dim.predictor import BimodalPredictor
from repro.dim.rcache import ReconfigurationCache
from repro.obs import (
    DEFAULT_MAX_EVENTS,
    EVENT_TYPES,
    NULL_TELEMETRY,
    EventLog,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    validate_event,
    validate_jsonl,
)
from repro.system import paper_system
from repro.system.config import PAPER_SHAPES, SystemSpec
from repro.system.coupled import run_coupled
from repro.system.sweep import SweepInstrumentation, evaluate_matrix
from repro.system.traceeval import evaluate_trace
from repro.workloads import load_workload
from repro.sim.cpu import run_program

CONFIG = paper_system("C2", 16, True)
DYNFLOW_CONFIG = SystemSpec.of(PAPER_SHAPES["C2"], DimParams(
    cache_slots=16, speculation=True, dynflow_mode="both")).build()
#: the namespaces of the counters one engine replay folds in.
ENGINE_NAMESPACES = ("dim", "dynflow", "rcache", "predictor")


def _trace(name="crc"):
    return run_program(load_workload(name), collect_trace=True).trace


# ----------------------------------------------------------------------
# Counters, timers, events.
# ----------------------------------------------------------------------
def test_counters_and_timers():
    tel = Telemetry()
    tel.count("rcache.hits")
    tel.count("rcache.hits", 4)
    tel.count_many({"rcache.hits": 5, "rcache.misses": 2})
    tel.add_time("sweep.total_seconds", 0.25)
    tel.add_time("sweep.total_seconds", 0.75)
    assert tel.counters == {"rcache.hits": 10, "rcache.misses": 2}
    assert tel.timers == {"sweep.total_seconds": 1.0}
    with tel.timer("sweep.trace_seconds"):
        pass
    assert tel.timers["sweep.trace_seconds"] >= 0.0


def test_emit_rejects_unknown_type():
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        tel.emit("rcache.explode", pc=4)
    tel.emit("rcache.hit", pc=4)  # known types are fine
    assert tel.events_emitted == 1


def test_event_stream_is_bounded_drop_oldest():
    tel = Telemetry(max_events=4)
    for pc in range(10):
        tel.emit("rcache.miss", pc=pc)
    assert tel.events_emitted == 10
    assert len(tel.events) == 4
    assert tel.events.dropped == 6
    # oldest dropped: the four survivors are the last four emissions
    assert [r["pc"] for r in tel.events] == [6, 7, 8, 9]
    assert [r["seq"] for r in tel.events] == [6, 7, 8, 9]


def test_events_disabled_still_counts_emissions():
    tel = Telemetry(max_events=None)
    tel.emit("predictor.update", pc=8, taken=True)
    assert tel.events is None
    assert tel.events_emitted == 1


def test_event_log_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        EventLog(0)


def test_validate_event_polices_shape():
    assert validate_event({"seq": 0, "type": "rcache.hit", "pc": 4}) == []
    assert validate_event({"type": "meta", "schema_version": 1}) == []
    assert validate_event({"seq": -1, "type": "rcache.hit"})
    assert validate_event({"seq": 0, "type": "nope"})
    assert validate_event({"seq": 0, "type": "rcache.hit",
                           "bad": [1, 2]})
    assert validate_event("not a dict")


# ----------------------------------------------------------------------
# Snapshots and diffs.
# ----------------------------------------------------------------------
def test_snapshot_diff_reports_exact_deltas():
    tel = Telemetry()
    tel.count("rcache.hits", 3)
    tel.count("rcache.misses", 1)
    before = tel.snapshot()
    tel.count("rcache.hits", 2)
    tel.emit("rcache.hit", pc=0)
    delta = tel.diff(before)
    # zero-delta counters are omitted entirely
    assert delta.counters == {"rcache.hits": 2}
    assert delta.events_emitted == 1
    # the snapshot itself is unaffected by later instrumentation
    assert before.counters == {"rcache.hits": 3, "rcache.misses": 1}


def test_snapshot_round_trips_through_dict():
    snap = TelemetrySnapshot(counters={"a": 1, "b": 2},
                             timers={"t": 0.5}, events_emitted=7)
    clone = TelemetrySnapshot.from_dict(
        json.loads(json.dumps(snap.as_dict())))
    assert clone == snap
    assert hash(clone) == hash(snap)
    assert clone.get("a") == 1 and clone.get("zzz") == 0


def test_null_telemetry_is_inert():
    assert NULL_TELEMETRY.enabled is False
    assert isinstance(NULL_TELEMETRY, NullTelemetry)
    NULL_TELEMETRY.count("anything")
    NULL_TELEMETRY.count_many({"x": 3})
    NULL_TELEMETRY.add_time("t", 1.0)
    NULL_TELEMETRY.emit("not even validated")
    with NULL_TELEMETRY.timer("t"):
        pass
    assert NULL_TELEMETRY.snapshot() == TelemetrySnapshot()


# ----------------------------------------------------------------------
# JSONL export.
# ----------------------------------------------------------------------
def test_write_jsonl_is_schema_valid(tmp_path):
    tel = Telemetry(max_events=8)
    for pc in range(12):
        tel.emit("rcache.miss", pc=pc)
    tel.emit("translation.committed", pc=64, instructions=5)
    path = tmp_path / "events.jsonl"
    lines_written = tel.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == lines_written == 1 + 8
    assert validate_jsonl(lines) == []
    meta = json.loads(lines[0])
    assert meta["type"] == "meta"
    assert meta["events_emitted"] == 13
    assert meta["events_dropped"] == 5


def test_sweep_cli_emits_schema_valid_stream(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.jsonl"
    assert main(["sweep", "--arrays", "C1", "--slots", "16",
                 "--only", "crc", "--no-cache",
                 "--telemetry", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert validate_jsonl(lines) == []
    types = {json.loads(line)["type"] for line in lines}
    assert "meta" in types and "sweep.cell_replayed" in types
    assert types <= EVENT_TYPES


# ----------------------------------------------------------------------
# Instrumented components emit the documented events.
# ----------------------------------------------------------------------
class _FakeConfig:
    """Just enough of a Configuration for the cache's bookkeeping."""

    def __init__(self, start_pc):
        self.start_pc = start_pc
        self.hits = 0
        self.builds = 1


def test_rcache_emits_hit_miss_evict():
    tel = Telemetry()
    cache = ReconfigurationCache(2, telemetry=tel)
    cache.lookup(0)                      # miss
    cache.insert(_FakeConfig(0))
    cache.insert(_FakeConfig(4))
    cache.lookup(0)                      # hit
    cache.insert(_FakeConfig(8))         # evicts pc=0 (FIFO)
    kinds = [(r["type"], r.get("pc")) for r in tel.events]
    assert ("rcache.miss", 0) in kinds
    assert ("rcache.hit", 0) in kinds
    assert ("rcache.evict", 0) in kinds


def test_predictor_emits_updates():
    tel = Telemetry()
    predictor = BimodalPredictor(64, telemetry=tel)
    predictor.update(32, True)
    predictor.update(32, False)
    records = [r for r in tel.events if r["type"] == "predictor.update"]
    assert [(r["pc"], r["taken"]) for r in records] == [(32, True),
                                                        (32, False)]


def test_disabled_components_have_no_swapped_methods():
    """The zero-overhead contract: without telemetry the hot methods
    are the plain class attributes, not per-instance wrappers."""
    cache = ReconfigurationCache(16)
    predictor = BimodalPredictor(64)
    assert "lookup" not in vars(cache)
    assert "update" not in vars(predictor)
    traced_cache = ReconfigurationCache(16, telemetry=Telemetry())
    traced_predictor = BimodalPredictor(64, telemetry=Telemetry())
    assert "lookup" in vars(traced_cache)
    assert "update" in vars(traced_predictor)


def test_evaluate_trace_folds_engine_counters():
    trace = _trace()
    tel = Telemetry(max_events=None)
    metrics = evaluate_trace(trace, CONFIG, telemetry=tel)
    counters = tel.counters
    assert counters["dim.translations"] == metrics.dim.translations
    assert counters["rcache.hits"] == metrics.cache_hits
    assert counters["rcache.lookups"] == metrics.cache_lookups
    assert counters["predictor.updates"] > 0
    # the per-event stream agrees with the folded counters
    streamed = Telemetry(max_events=1 << 20)
    evaluate_trace(trace, CONFIG, telemetry=streamed)
    hits = sum(1 for r in streamed.events if r["type"] == "rcache.hit")
    assert hits == metrics.cache_hits


def test_coupled_run_adds_its_own_sim_counters():
    """A coupled run is one simulation: it adds the ``sim.*`` counters
    of its own core, as ``Simulator.run`` does for a plain run."""
    tel = Telemetry(max_events=None)
    result = run_coupled(load_workload("crc"), CONFIG, telemetry=tel)
    counters = tel.counters
    assert counters["sim.runs"] == 1
    assert counters["sim.instructions"] == result.stats.instructions
    assert counters["sim.cycles"] == result.stats.cycles
    assert counters["dim.array_executions"] \
        == result.dim_stats.array_executions > 0
    assert "sim.run_seconds" in tel.timers


# ----------------------------------------------------------------------
# Non-interference: observed numbers never change.
# ----------------------------------------------------------------------
def test_metrics_identical_with_and_without_telemetry():
    trace = _trace()
    bare = evaluate_trace(trace, CONFIG)
    observed = evaluate_trace(trace, CONFIG, telemetry=Telemetry())
    assert bare == observed


def _cold_matrix(monkeypatch, configs, names, **kwargs):
    """A one-shot ``evaluate_matrix`` that finds no run in memory."""
    import repro.workloads as workloads

    monkeypatch.setattr(workloads, "_RUNS", {})
    return evaluate_matrix(configs, names=names, **kwargs)


def test_sweep_json_identical_with_and_without_telemetry(monkeypatch):
    configs = [paper_system("C1", 16, False), CONFIG]
    names = ("crc", "quicksort")
    bare = _cold_matrix(monkeypatch, configs, names)
    observed = _cold_matrix(monkeypatch, configs, names,
                            telemetry=Telemetry())
    assert bare.results_json() == observed.results_json()
    # an observed sweep runs the same engine: same cells, same reuse
    assert bare.instrumentation.counters() \
        == observed.instrumentation.counters()


def _engine_counters_of(counters):
    return {name: n for name, n in counters.items()
            if name.split(".")[0] in ENGINE_NAMESPACES}


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_engine_counters_match_event_oracle(jobs):
    """The engine counters an observed matrix folds in are the sums of
    what the event engine folds in replaying each cell alone."""
    configs = [CONFIG, DYNFLOW_CONFIG]
    names = ("crc", "quicksort")
    oracle = Telemetry(max_events=None)
    for name in names:
        trace = _trace(name)
        for config in configs:
            evaluate_trace(trace, config, telemetry=oracle)
    observed = Telemetry()
    evaluate_matrix(configs, names=names, jobs=jobs,
                    telemetry=observed)
    expected = _engine_counters_of(oracle.counters)
    assert expected["dynflow.dual_configs"] > 0
    assert expected["dim.misspeculations"] > 0
    assert _engine_counters_of(observed.counters) == expected


def test_parallel_telemetry_matches_serial():
    configs = [paper_system("C1", 16, False), CONFIG, DYNFLOW_CONFIG]
    names = ("crc", "quicksort")
    serial_tel = Telemetry()
    serial = evaluate_matrix(configs, names=names,
                             telemetry=serial_tel)
    parallel_tel = Telemetry()
    parallel = evaluate_matrix(configs, names=names, jobs=2,
                               telemetry=parallel_tel)
    assert serial.results_json() == parallel.results_json()
    # counters merge deterministically across the process pool
    assert serial_tel.counters == parallel_tel.counters
    assert serial_tel.events_emitted == parallel_tel.events_emitted
    # and the matrix-level JSON export agrees too
    assert serial.telemetry_json() is not None
    strip = lambda payload: {k: v for k, v in payload.items()
                             if k != "timers"}
    assert strip(json.loads(serial.telemetry_json())) == \
        strip(json.loads(parallel.telemetry_json()))


def test_matrix_telemetry_json_without_sink_projects_instrumentation():
    matrix = evaluate_matrix([CONFIG], names=("crc",))
    payload = json.loads(matrix.telemetry_json())
    assert payload["counters"]["sweep.cells"] == 1
    assert payload["counters"]["sweep.workloads"] == 1
    assert "sweep.total_seconds" in payload["timers"]


# ----------------------------------------------------------------------
# The serve.* namespace of the closed schema (:mod:`repro.serve`).
# ----------------------------------------------------------------------
def test_serve_namespace_events_are_closed():
    """serve.* event types are schema members; inventing a new one in
    the serve code without registering it here must fail loudly."""
    serve_types = {t for t in EVENT_TYPES if t.startswith("serve.")}
    assert serve_types == {"serve.job_submitted",
                           "serve.batch_dispatched",
                           "serve.job_retried",
                           "serve.job_finished"}
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        tel.emit("serve.job_exploded", job_id="j000001")
    # unknown-namespace records also fail stream validation
    assert validate_event({"seq": 0, "type": "serve.job_exploded"})
    assert validate_event({"seq": 0, "type": "mystery.counted"})
    bad = json.dumps({"seq": 0, "type": "mystery.counted"})
    good = json.dumps({"seq": 1, "type": "serve.job_finished",
                       "job_id": "j000001", "state": "done"})
    problems = validate_jsonl([bad, good])
    assert len(problems) == 1 and "mystery.counted" in problems[0]


def test_serve_collectors_map_stats_onto_schema():
    from repro.obs import serve_counters, serve_timers
    from repro.obs.schema import SERVE_COUNTERS, SERVE_TIMERS
    from repro.serve import ServeStats

    stats = ServeStats(jobs_submitted=7, jobs_completed=5, batches=2,
                       batched_jobs=5, max_batch_width=3, retries=1,
                       queue_seconds=0.5, exec_seconds=1.5)
    stats.observe_latency(0.004)
    stats.observe_latency(3.0)
    counters = serve_counters(stats)
    assert counters["serve.jobs_submitted"] == 7
    assert counters["serve.batches"] == 2
    assert counters["serve.latency_le_10ms"] == 1
    assert counters["serve.latency_le_10s"] == 1
    assert serve_timers(stats) == {"serve.queue_seconds": 0.5,
                                   "serve.exec_seconds": 1.5}
    # every schema entry maps onto a real ServeStats attribute
    for mapping in (SERVE_COUNTERS, SERVE_TIMERS):
        for name, attr in mapping.items():
            assert name.startswith("serve.")
            assert hasattr(stats, attr)
    assert stats.mean_batch_width == 2.5


# ----------------------------------------------------------------------
# Back-compat: the legacy stats carriers still exist and agree.
# ----------------------------------------------------------------------
def test_sweep_instrumentation_aliases_unified_schema():
    inst = SweepInstrumentation(cells=3, workloads=2, systems=4,
                                traces_simulated=2, alloc_hits=10,
                                total_seconds=1.5)
    counters = inst.counters()
    assert counters["sweep.cells"] == 3
    assert counters["sweep.traces_simulated"] == 2
    assert counters["sweep.alloc_hits"] == 10
    assert inst.timer_values()["sweep.total_seconds"] == 1.5
    # the old as_dict surface is still intact
    assert inst.as_dict()["cells"] == 3


def test_sweep_stream_ends_with_the_run_counters(tmp_path):
    """The columnar engine reports dynflow as counters, not events: the
    stream's ``counters`` trailer carries them (CI's dynflow-smoke reads
    it), and they are zero when the mode is off."""
    from repro.cli import main

    counters = {}
    for mode in ("both", "off"):
        out = tmp_path / f"{mode}.jsonl"
        assert main(["sweep", "--arrays", "C1", "--slots", "16",
                     "--spec", "on", "--only", "crc",
                     "--no-cache", "--dynflow", mode,
                     "--telemetry", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert validate_jsonl(lines) == []
        counters[mode] = json.loads(lines[-1])
        assert counters[mode]["type"] == "counters"
    assert counters["both"]["dynflow.loop_executions"] > 0
    assert counters["both"]["dynflow.dual_executions"] > 0
    assert counters["off"]["dynflow.loop_executions"] == 0
    assert counters["off"]["dynflow.dual_executions"] == 0


def test_counters_trailer_must_hold_integers():
    assert validate_jsonl(['{"type": "counters", "a.b": 3}']) == []
    assert validate_jsonl(['{"type": "counters", "a.b": 1.5}']) != []
    assert validate_jsonl(['{"type": "counters", "a.b": true}']) != []
