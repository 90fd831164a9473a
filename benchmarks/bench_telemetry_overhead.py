"""Telemetry overhead: the disabled path must cost (almost) nothing.

Not a paper experiment — this bench guards the ``repro.obs`` design
contract: components that were handed no telemetry run the *unchanged*
pre-instrumentation code on their hot paths.  The two hot sites
(reconfiguration-cache lookup, predictor update — one or more calls per
executed block, millions per workload) shadow an instrumented bound
method onto the instance *only* when a live sink is attached; cold
sites guard with one attribute check per translation-rate event.

Two enforcement layers:

- **Structural** — a component built without telemetry must dispatch
  the plain class methods (no per-instance wrappers in ``vars()``).
- **Measured** — an interleaved min-of-k A/B of full trace replays:
  the production disabled path versus a "bare" variant whose hot
  methods are verbatim pre-instrumentation copies kept in this file.
  The ratio must stay under 1.02 (the <2 % acceptance bar).  If
  someone later instruments the hot path unconditionally, the class
  body diverges from the bare copies here and the ratio blows the bar.

The enabled-path cost is also measured and recorded (events collected,
bounded log) but only loosely bounded — enabling telemetry is allowed
to cost real time; disabling it is not.

All numbers land in ``BENCH_telemetry.json`` next to this file.
"""

import json
import time
from pathlib import Path

import pytest

from repro.dim.predictor import BimodalPredictor
from repro.dim.rcache import ReconfigurationCache
from repro.obs import Telemetry
from repro.sim.cpu import run_program
from repro.system import paper_system
from repro.system.traceeval import evaluate_trace
from repro.workloads import load_workload

CONFIG = paper_system("C2", 64, True)
WORKLOAD = "crc"
ROUNDS = 5
OVERHEAD_BAR = 1.02

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_telemetry.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


@pytest.fixture(scope="module")
def trace():
    return run_program(load_workload(WORKLOAD), collect_trace=True).trace


# ----------------------------------------------------------------------
# Verbatim pre-instrumentation hot-method bodies (the "bare" A side).
# ----------------------------------------------------------------------
def _bare_lookup(self, pc):
    self.lookups += 1
    config = self._entries.get(pc)
    if config is not None:
        self.hits += 1
        config.hits += 1
        if self.policy == "lru":
            self._entries.move_to_end(pc)
    return config


def _bare_update(self, pc, taken):
    index = self._index(pc)
    counter = self._counters.get(index, self._initial)
    self.updates += 1
    if (counter >= self.WEAK_TAKEN) == taken:
        self.hits += 1
    if taken:
        counter = min(self.STRONG_TAKEN, counter + 1)
    else:
        counter = max(self.STRONG_NOT_TAKEN, counter - 1)
    self._counters[index] = counter


def _replay_seconds(trace, telemetry=None):
    start = time.perf_counter()
    evaluate_trace(trace, CONFIG, telemetry=telemetry)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Structural: no wrappers unless a sink is attached.
# ----------------------------------------------------------------------
def test_disabled_components_dispatch_plain_class_methods():
    cache = ReconfigurationCache(64)
    predictor = BimodalPredictor(512)
    assert "lookup" not in vars(cache)
    assert "update" not in vars(predictor)
    assert type(cache).lookup is ReconfigurationCache.lookup
    assert cache.lookup.__func__ is ReconfigurationCache.lookup
    assert predictor.update.__func__ is BimodalPredictor.update
    # ... and wrappers appear exactly when a sink is attached
    live = ReconfigurationCache(64, telemetry=Telemetry())
    assert vars(live)["lookup"].__func__ \
        is ReconfigurationCache._traced_lookup


# ----------------------------------------------------------------------
# Measured: disabled replay vs bare replay, interleaved min-of-k.
# ----------------------------------------------------------------------
def test_null_telemetry_overhead_under_two_percent(trace, monkeypatch,
                                                   capsys):
    _replay_seconds(trace)  # warm allocators and code caches once
    null_seconds, bare_seconds = [], []
    for _ in range(ROUNDS):
        null_seconds.append(_replay_seconds(trace))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ReconfigurationCache, "lookup", _bare_lookup)
            patch.setattr(BimodalPredictor, "update", _bare_update)
            bare_seconds.append(_replay_seconds(trace))
    best_null, best_bare = min(null_seconds), min(bare_seconds)
    ratio = best_null / best_bare
    RESULTS["workload"] = WORKLOAD
    RESULTS["system"] = CONFIG.name
    RESULTS["rounds"] = ROUNDS
    RESULTS["bare_replay_seconds"] = best_bare
    RESULTS["null_replay_seconds"] = best_null
    RESULTS["null_overhead_ratio"] = ratio
    with capsys.disabled():
        print(f"\nbare replay: {best_bare * 1e3:.1f}ms, disabled "
              f"telemetry: {best_null * 1e3:.1f}ms -> {ratio:.4f}x "
              f"(bar {OVERHEAD_BAR}x)")
    assert ratio <= OVERHEAD_BAR


def test_enabled_telemetry_cost_recorded(trace, capsys):
    """The live-sink cost is reported (and loosely sanity-bounded)."""
    bare = min(_replay_seconds(trace) for _ in range(3))
    counting = min(_replay_seconds(trace, Telemetry(max_events=None))
                   for _ in range(3))
    streaming = min(_replay_seconds(trace, Telemetry())
                    for _ in range(3))
    RESULTS["enabled_counting_seconds"] = counting
    RESULTS["enabled_streaming_seconds"] = streaming
    RESULTS["enabled_counting_ratio"] = counting / bare
    RESULTS["enabled_streaming_ratio"] = streaming / bare
    with capsys.disabled():
        print(f"\nenabled sink: counting {counting / bare:.2f}x, "
              f"event stream {streaming / bare:.2f}x over disabled")
    # an attached sink may cost real time, but not pathological time
    assert streaming / bare < 25.0
