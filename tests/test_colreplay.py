"""Differential tests for the columnar replay engine.

The contract is the strongest one the sweep layer makes: for every
workload and every system configuration, :func:`evaluate_trace_columnar`
must return a :class:`SystemMetrics` *bit-identical* to the event-driven
:func:`evaluate_trace` — same cycle counts, same DIM statistics, same
energy inputs — and every matrix entry point built on it (the sweep
API and the ``repro sweep`` CLI) must match the event-engine oracle of
``tests/oracle.py`` byte for byte.
"""

import dataclasses
import json
import pickle

import pytest

from repro.cli import main
from repro.dim.memo import TranslationMemo
from repro.dim.params import DimParams
from repro.obs.schema import (
    DIM_COUNTERS,
    DYNFLOW_COUNTERS,
    PREDICTOR_COUNTERS,
    RCACHE_COUNTERS,
    SWEEP_COUNTERS,
    metrics_counters,
)
from repro.sim.coltrace import COLTRACE_FORMAT, ColumnarTrace
from repro.system.colreplay import (
    ColumnarContext,
    baseline_metrics_columnar,
    evaluate_trace_columnar,
)
from repro.system.config import PAPER_SHAPES, custom_system, paper_system
from repro.system.traceeval import baseline_metrics, evaluate_trace
from repro.workloads import run_workload, workload_names
from tests.oracle import event_matrix

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def grid_configs():
    """A representative slice of the design space: every array class,
    speculation on/off, slot counts small enough to force evictions,
    both replacement policies, and the unbounded ideal cache."""
    lru = DimParams(cache_slots=8, cache_policy="lru", speculation=True)
    lru_nospec = dataclasses.replace(lru, speculation=False)
    return [
        paper_system("C1", 16, False),
        paper_system("C1", 4, True),
        paper_system("C3", 64, True),
        paper_system("ideal", speculation=True),
        custom_system(PAPER_SHAPES["C2"], lru),
        custom_system(PAPER_SHAPES["C2"], lru_nospec),
    ]


def assert_same_metrics(columnar, event):
    assert dataclasses.asdict(columnar) == dataclasses.asdict(event)


# ----------------------------------------------------------------------
# The core bit-identity bar: every workload x a representative grid.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workload_names())
def test_columnar_matches_event_engine(name):
    trace = run_workload(name, fast=True).trace
    context = ColumnarContext(trace, name=name)
    memo = TranslationMemo()
    seen_timings = set()
    for config in grid_configs():
        event = evaluate_trace(trace, config, name=name, memo=memo)
        columnar = evaluate_trace_columnar(trace, config, name=name,
                                           context=context)
        assert_same_metrics(columnar, event)
        if config.timing not in seen_timings:
            seen_timings.add(config.timing)
            assert_same_metrics(
                baseline_metrics_columnar(context, config.timing),
                baseline_metrics(trace, config.timing))


def test_columnar_metrics_json_serialisable():
    """Every metric must be a plain int/float — numpy scalars would
    break the deterministic JSON reports."""
    trace = run_workload("crc", fast=True).trace
    metrics = evaluate_trace_columnar(trace, paper_system("C2", 64, True),
                                      name="crc")
    json.dumps(dataclasses.asdict(metrics))


# ----------------------------------------------------------------------
# The persisted columnar lowering.
# ----------------------------------------------------------------------
def test_coltrace_payload_roundtrip():
    trace = run_workload("crc", fast=True).trace
    lowered = ColumnarTrace(trace)
    lowered.timeline(512)
    assert lowered.timelines_built == 1

    payload = pickle.loads(pickle.dumps(lowered.to_payload()))
    restored = ColumnarTrace.from_payload(trace, payload)
    assert restored is not None
    assert restored.timelines_built == 1

    config = paper_system("C2", 16, True)
    context = ColumnarContext(trace, name="crc", coltrace=restored)
    assert_same_metrics(
        evaluate_trace_columnar(trace, config, name="crc",
                                context=context),
        evaluate_trace(trace, config, name="crc"))


def test_coltrace_payload_stale_detection():
    trace = run_workload("crc", fast=True).trace
    good = ColumnarTrace(trace).to_payload()
    assert ColumnarTrace.from_payload(trace, {"version": -1}) is None
    assert ColumnarTrace.from_payload(trace, "not a dict") is None
    stale = dict(good)
    stale["events"] = good["events"] - 1
    assert ColumnarTrace.from_payload(trace, stale) is None
    assert ColumnarTrace.from_payload(trace, good) is not None
    assert good["version"] == COLTRACE_FORMAT


def test_columnar_counters_in_schema():
    """A columnar cell reports every engine counter under its schema
    name; the sweep has no per-engine cell count since every live cell
    is columnar."""
    config = paper_system("C2", 16, True)
    context = ColumnarContext(run_workload("crc", fast=True).trace)
    metrics = evaluate_trace_columnar(context.trace, config,
                                      context=context)
    counters = metrics_counters(metrics, context.coltrace.timeline(
        config.dim.predictor_entries))
    assert set(counters) == (set(DIM_COUNTERS) | set(DYNFLOW_COUNTERS)
                             | set(RCACHE_COUNTERS)
                             | set(PREDICTOR_COUNTERS))
    assert counters["rcache.hits"] == metrics.cache_hits
    assert "sweep.cells_columnar" not in SWEEP_COUNTERS


# ----------------------------------------------------------------------
# The CLI sweep against the event-engine oracle.
# ----------------------------------------------------------------------
def test_cli_sweep_matches_event_oracle(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--only", "crc", "--arrays", "C1,C3",
                 "--slots", "16", "--spec", "both", "--fast",
                 "--no-cache", "--json", str(out)])
    assert code == 0
    configs = [paper_system(array, 16, spec)
               for array in ("C1", "C3") for spec in (False, True)]
    oracle = event_matrix(configs, ["crc"], fast=True)
    assert out.read_text() == oracle.results_json()


# ----------------------------------------------------------------------
# Random-trace differential (hypothesis).
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    _MIX_OPS = ["+", "-", "^", "*", "&", "|"]

    @st.composite
    def _branchy_programs(draw):
        """Small always-terminating programs whose branch outcomes are
        data-dependent, so random traces exercise the predictor
        timelines, speculation exits and cache churn."""
        seed = draw(st.integers(1, 2**30))
        iters = draw(st.integers(8, 48))
        shift = draw(st.integers(1, 7))
        threshold = draw(st.integers(0, 255))
        op_a = draw(st.sampled_from(_MIX_OPS))
        op_b = draw(st.sampled_from(_MIX_OPS))
        mask = draw(st.sampled_from([63, 255, 1023]))
        return f"""
int main() {{
    unsigned x = {seed};
    unsigned acc = 0;
    int i;
    for (i = 0; i < {iters}; i++) {{
        x = x * 1664525 + 1013904223;
        if (((x >> {shift}) & 255) < {threshold}) {{
            acc = acc {op_a} (x & {mask});
        }} else {{
            acc = acc {op_b} 3;
        }}
        if ((x & 7) == 0) {{
            acc = acc + 1;
        }}
    }}
    print_int(acc & 0x7fffffff);
    return 0;
}}
"""

    @settings(max_examples=10, deadline=None)
    @given(_branchy_programs(),
           st.sampled_from(["C1/4/spec", "C2/16/spec", "C3/64/nospec",
                            "lru"]))
    def test_random_trace_differential(source, which):
        from repro.minic import compile_to_program
        from repro.sim import run_program

        if which == "lru":
            config = custom_system(
                PAPER_SHAPES["C2"],
                DimParams(cache_slots=4, cache_policy="lru",
                          speculation=True))
        else:
            array, slots, spec = which.split("/")
            config = paper_system(array, int(slots), spec == "spec")
        program = compile_to_program(source)
        plain = run_program(program, collect_trace=True,
                            max_instructions=2_000_000)
        assert plain.exit_code == 0
        assert_same_metrics(
            evaluate_trace_columnar(plain.trace, config),
            evaluate_trace(plain.trace, config))
