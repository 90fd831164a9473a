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

from repro.asm import assemble
from repro.cli import main
from repro.dim.memo import TranslationMemo
from repro.dim.params import DimParams
from repro.dim.predictor import BimodalPredictor
from repro.obs.schema import (
    DIM_COUNTERS,
    DYNFLOW_COUNTERS,
    PREDICTOR_COUNTERS,
    RCACHE_COUNTERS,
    SWEEP_COUNTERS,
    dim_counters,
    dynflow_counters,
    metrics_counters,
)
from repro.sim import run_program
from repro.sim.coltrace import (
    COLTRACE_FORMAT,
    ColumnarTrace,
    PredictorTimeline,
)
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


def pressure_configs():
    """Four-slot caches, where flushes and evictions are dense and most
    chains are short: a C1 spec system building linear, loop and dual
    templates, and LRU and FIFO no-spec systems."""
    both = paper_system("C1", 4, True)
    both = dataclasses.replace(
        both, dim=dataclasses.replace(both.dim, dynflow_mode="both"),
        name=f"{both.name}+both")
    lru = DimParams(cache_slots=4, cache_policy="lru")
    return [both,
            custom_system(PAPER_SHAPES["C2"], lru),
            paper_system("C1", 4, False)]


def grid_configs():
    """A representative slice of the design space: every array class,
    speculation on/off, slot counts small enough to force evictions,
    both replacement policies, the unbounded ideal cache, and the
    :func:`pressure_configs`."""
    lru = DimParams(cache_slots=8, cache_policy="lru", speculation=True)
    lru_nospec = dataclasses.replace(lru, speculation=False)
    return [
        paper_system("C1", 16, False),
        paper_system("C1", 4, True),
        paper_system("C3", 64, True),
        paper_system("ideal", speculation=True),
        custom_system(PAPER_SHAPES["C2"], lru),
        custom_system(PAPER_SHAPES["C2"], lru_nospec),
        *pressure_configs(),
    ]


def assert_same_metrics(columnar, event):
    assert dataclasses.asdict(columnar) == dataclasses.asdict(event)


# ----------------------------------------------------------------------
# The core bit-identity bar: every workload x a representative grid.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workload_names())
def test_columnar_matches_event_engine(name):
    trace = run_workload(name).trace
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


def test_pressure_configs_exercise_every_template_kind():
    trace = run_workload("crc").trace
    context = ColumnarContext(trace, name="crc")
    spec, lru, fifo = [evaluate_trace_columnar(trace, config, name="crc",
                                               context=context)
                       for config in pressure_configs()]
    dim = spec.dim
    assert dim.loop_configs and dim.dual_configs
    assert dim.config_writes > dim.loop_configs + dim.dual_configs
    assert dim.loop_executions and dim.dual_executions and dim.flushes
    assert lru.cache_evictions and fifo.cache_evictions


#: li / addiu / j / addiu / li $v0, 10 / syscall: no conditional event,
#: so every predictor timeline is empty.
STRAIGHT_LINE = """
__start:
    li $t0, 7
    addiu $t0, $t0, 1
    j tail
tail:
    addiu $t1, $t0, 2
    li $v0, 10
    syscall
"""


@pytest.mark.parametrize("speculation", [False, True])
def test_trace_without_conditional_events(speculation):
    trace = run_program(assemble(STRAIGHT_LINE), collect_trace=True).trace
    config = paper_system("C1", 16, speculation)
    assert_same_metrics(evaluate_trace_columnar(trace, config),
                        evaluate_trace(trace, config))


def _jump_chain(blocks: int, trips: int) -> str:
    """A loop whose body is ``blocks`` short blocks chained by ``j``."""
    lines = ["__start:", f"    li $s0, {trips}", "loop:"]
    for index in range(blocks):
        lines += [f"b{index}:", "    addiu $t0, $t0, 1",
                  "    addiu $t1, $t1, 3", f"    j b{index + 1}"]
    lines += [f"b{blocks}:", "    addiu $s0, $s0, -1",
              "    bne $s0, $zero, loop", "    li $v0, 10", "    syscall"]
    return "\n".join(lines)


def test_exit_codes_beyond_one_byte_stay_exact():
    """Exit codes are packed one byte each only while they fit: a
    configuration of more than 252 blocks keeps them in a list, and
    its executions still match the event engine.  The cache holds the
    whole chain, so those configurations hit."""
    trace = run_program(assemble(_jump_chain(300, 12)),
                        collect_trace=True).trace
    config = custom_system(PAPER_SHAPES["ideal"],
                           DimParams(max_blocks=400, speculation=True,
                                     cache_slots=512))
    context = ColumnarContext(trace, name="chain")
    metrics = evaluate_trace_columnar(trace, config, context=context)
    assert metrics == evaluate_trace(trace, config)
    assert metrics.dim.array_instructions > 256 * metrics.dim.array_executions
    assert metrics.dim.misspeculations
    assert any(path.ncodes > 256 and isinstance(path.code_list, list)
               for path in context._paths.values())


def test_columnar_metrics_json_serialisable():
    """Every metric must be a plain int/float — numpy scalars would
    break the deterministic JSON reports."""
    trace = run_workload("crc").trace
    metrics = evaluate_trace_columnar(trace, paper_system("C2", 64, True),
                                      name="crc")
    json.dumps(dataclasses.asdict(metrics))


# ----------------------------------------------------------------------
# Path tables: one set per block chain, shared by shapes and policies.
# ----------------------------------------------------------------------
def _sweep_and_dynflow_configs():
    """The sweep's 12 cells (C1/C2/C3 x 16/64 x spec off/on), a
    ``dynflow_mode="both"`` C1 and C3 pair, whose loop and dual chains
    share path tables across shapes, and a 16-entry predictor, whose
    verdict tables differ from the default predictor's."""
    configs = [paper_system(array, slots, spec)
               for array in ("C1", "C2", "C3") for slots in (16, 64)
               for spec in (False, True)]
    for array, dim in (("C1", {"dynflow_mode": "both"}),
                       ("C3", {"dynflow_mode": "both"}),
                       ("C2", {"predictor_entries": 16})):
        base = paper_system(array, 64, True)
        configs.append(dataclasses.replace(
            base, dim=dataclasses.replace(base.dim, **dim)))
    return configs


@pytest.mark.parametrize("name", ["crc", "sha", "gsm_d"])
def test_shared_path_tables_match_fresh_contexts(name):
    """One context replaying every cell, in either order, gives each
    cell the metrics a fresh context gives it alone, while its templates
    share fewer path objects than there are templates."""
    trace = run_workload(name).trace
    configs = _sweep_and_dynflow_configs()
    fresh = [dataclasses.asdict(evaluate_trace_columnar(
        trace, config, name=name, context=ColumnarContext(trace, name)))
        for config in configs]
    for step in (1, -1):
        context = ColumnarContext(trace, name=name)
        shared = [dataclasses.asdict(evaluate_trace_columnar(
            trace, config, name=name, context=context))
            for config in configs[::step]]
        assert shared[::step] == fresh
        templates = sum(len(group)
                        for group in context._templates.values())
        assert 0 < len(context._paths) < templates


@pytest.mark.parametrize("speculation", [False, True])
def test_shared_context_prices_each_cells_stall_and_penalty(speculation):
    """The reconfiguration overlap and the mis-speculation penalty are
    not translation policy: cells that differ only in them share one
    translation partition of a context, and each must still pay its own
    stalls and penalties."""
    trace = run_workload("crc").trace
    context = ColumnarContext(trace, name="crc")
    base = paper_system("C1", 64, speculation)
    for dim in ({}, {"reconfig_overlap": 0},
                {"reconfig_overlap": 0, "misspec_penalty": 9}):
        config = dataclasses.replace(
            base, dim=dataclasses.replace(base.dim, **dim))
        assert_same_metrics(
            evaluate_trace_columnar(trace, config, name="crc",
                                    context=context),
            evaluate_trace(trace, config, name="crc"))


# ----------------------------------------------------------------------
# Tier A's residency walk, shared per cacheable set.
# ----------------------------------------------------------------------
def _nospec_pressure_cells():
    """C1-C3 without speculation at two slot counts that both force
    evictions on crc and susan_c, under FIFO and under LRU."""
    return [custom_system(PAPER_SHAPES[array],
                          DimParams(cache_slots=slots, cache_policy=policy))
            for policy in ("fifo", "lru") for slots in (4, 8)
            for array in ("C1", "C2", "C3")]


@pytest.mark.parametrize("name", ["susan_c", "crc"])
def test_nospec_residency_walk_is_shared_per_cacheable_set(name):
    """One context replays every cell, forward and reversed: each cell
    equals a fresh context's and the event engine's, and the context
    walks residency once per (cacheable set, slots, policy)."""
    trace = run_workload(name).trace
    configs = _nospec_pressure_cells()
    expected = []
    for config in configs:
        fresh = evaluate_trace_columnar(trace, config, name=name)
        assert_same_metrics(fresh, evaluate_trace(trace, config, name=name))
        assert fresh.cache_evictions
        expected.append(dataclasses.asdict(fresh))
    for order in (list(range(len(configs))),
                  list(reversed(range(len(configs))))):
        context = ColumnarContext(trace, name=name)
        keys = set()
        for index in order:
            config = configs[index]
            shared = evaluate_trace_columnar(trace, config, name=name,
                                             context=context)
            assert dataclasses.asdict(shared) == expected[index]
            keys.add((context.nospec_tables(config)["cacheable"].tobytes(),
                      config.dim.cache_slots, config.dim.cache_policy))
        assert set(context._residency) == keys
        assert len(keys) < len(configs)


# ----------------------------------------------------------------------
# The predictor timeline against the live predictor.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entries", [16, 512])
@pytest.mark.parametrize("name", ["crc", "sha", "susan_c", None])
def test_predictor_timeline_matches_the_live_predictor(name, entries):
    """Replaying ``BimodalPredictor.update`` over the trace's branch
    events gives the timeline's totals, and right after every update
    the timeline's class answers what the live counter says (``None``
    is a trace with no conditional event)."""
    trace = (run_workload(name).trace if name else
             run_program(assemble(STRAIGHT_LINE), collect_trace=True).trace)
    coltrace = ColumnarTrace(trace)
    timeline = coltrace.timeline(entries)
    predictor = BimodalPredictor(entries)
    positions, pcs, takens = coltrace.branch_events()
    assert (len(positions) == 0) == (name is None)
    for position, pc, taken in zip(positions.tolist(), pcs.tolist(),
                                   takens.tolist()):
        predictor.update(pc, taken == 1)
        assert timeline.saturated_direction(pc, position + 1) \
            == predictor.saturated_direction(pc)
    assert (timeline.updates, timeline.hits) == (predictor.updates,
                                                 predictor.hits)
    payload = pickle.loads(pickle.dumps(timeline.to_payload()))
    assert PredictorTimeline.from_payload(payload).to_payload() \
        == timeline.to_payload()


# ----------------------------------------------------------------------
# The persisted columnar lowering.
# ----------------------------------------------------------------------
def test_coltrace_payload_roundtrip():
    trace = run_workload("crc").trace
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
    trace = run_workload("crc").trace
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
    context = ColumnarContext(run_workload("crc").trace)
    metrics = evaluate_trace_columnar(context.trace, config,
                                      context=context)
    counters = metrics_counters(metrics, context.coltrace.timeline(
        config.dim.predictor_entries))
    assert set(counters) == (set(DIM_COUNTERS) | set(DYNFLOW_COUNTERS)
                             | set(RCACHE_COUNTERS)
                             | set(PREDICTOR_COUNTERS))
    assert counters["rcache.hits"] == metrics.cache_hits
    assert "sweep.cells_columnar" not in SWEEP_COUNTERS


def _liveness_cells():
    """A small fixed set of cells on which every engine counter moves:
    crc and rijndael_e under both dynamic control-flow kinds, plain
    speculation and no speculation, plus one cell whose reconfiguration
    is never overlapped (no paper system stalls)."""
    def dim(config, **fields):
        return dataclasses.replace(
            config, dim=dataclasses.replace(config.dim, **fields))

    systems = [dim(paper_system("C1", 4, True), dynflow_mode="both"),
               dim(paper_system("C3", 16, True), dynflow_mode="loop"),
               paper_system("C2", 16, True),
               paper_system("C1", 16, False)]
    cells = [(name, config) for name in ("crc", "rijndael_e")
             for config in systems]
    cells.append(("crc", dim(paper_system("C1", 64, False),
                             reconfig_overlap=0)))
    return cells


def test_every_engine_counter_moves_on_both_replays():
    """Every ``dim.*`` and ``dynflow.*`` counter is nonzero on at least
    one cell, under the event replay and the columnar replay alike: a
    counter that no engine increments reads 0 in every stream."""
    traces = {name: run_workload(name).trace
              for name in ("crc", "rijndael_e")}
    live = {"event": set(), "columnar": set()}
    for name, config in _liveness_cells():
        trace = traces[name]
        for engine, metrics in (
                ("event", evaluate_trace(trace, config, name=name)),
                ("columnar", evaluate_trace_columnar(trace, config,
                                                     name=name))):
            counters = dim_counters(metrics.dim)
            counters.update(dynflow_counters(metrics.dim))
            live[engine].update(key for key, value in counters.items()
                                if value)
    expected = set(DIM_COUNTERS) | set(DYNFLOW_COUNTERS)
    assert live["event"] == expected, expected - live["event"]
    assert live["columnar"] == expected, expected - live["columnar"]


# ----------------------------------------------------------------------
# The translation memo: query-point memo, validity box and signatures.
# ----------------------------------------------------------------------
def _memo_query_points(trace, first_events, rng):
    """Replay-shaped query points ``(block, t_pred, t_seen)``: a
    translation after a miss at event ``p`` asks at ``(p+1, p+1)``, an
    extension attempt at a hit at ``(p, p+1)``.  Scattered points and
    points next to a block's first occurrence (where successors become
    seen) in shuffled order, then runs of consecutive events that stay
    inside boxes, then repeats of earlier points."""
    blocks = trace.table.blocks
    events = trace.events
    n = len(events)

    def point(p, extension):
        p = min(max(p, 0), n - 1)
        return (blocks[events[p] >> 1], p + 1 - extension, p + 1)

    points = [point(rng.randrange(n), rng.randrange(2))
              for _ in range(300)]
    points += [point(rng.choice(first_events) + rng.randrange(-3, 4),
                     rng.randrange(2)) for _ in range(1000)]
    rng.shuffle(points)
    for _ in range(8):
        start = rng.randrange(n)
        points += [point(p, rng.randrange(2))
                   for p in range(start, min(n, start + 40))]
    points += rng.sample(points, 100)
    return points


@pytest.mark.parametrize("name", ["crc", "sha"])
@pytest.mark.parametrize("dynflow", ["off", "both"])
def test_translation_memo_answers_any_query_order(name, dynflow):
    """Whatever order the queries come in — entering, leaving and
    outgrowing validity boxes — every answer of ``translate_at`` is the
    template a fresh translation at that point builds."""
    import random

    from repro.dim.translator import Translator
    from repro.system.colreplay import _PhasePredictor, _template_key

    config = custom_system(PAPER_SHAPES["C2"], DimParams(
        cache_slots=64, speculation=True, dynflow_mode=dynflow))
    trace = run_workload(name).trace
    context = ColumnarContext(trace, name=name)
    memo = context.translation_timeline(config)
    first_event_by_pc = context.coltrace.first_event_by_pc

    def seen_provider(t_seen):
        def provider(pc):
            first = first_event_by_pc.get(pc)
            if first is None or first >= t_seen:
                return None
            return trace.table.get_by_pc(pc)
        return provider

    points = _memo_query_points(trace, sorted(first_event_by_pc.values()),
                                random.Random(f"{name}/{dynflow}"))
    for block, t_pred, t_seen in points:
        template = memo.translate_at(block, t_pred, t_seen)
        fresh = Translator(config.shape, config.dim,
                           _PhasePredictor(memo.timeline, t_pred),
                           seen_provider(t_seen)).translate(block)
        assert (None if template is None
                else _template_key(template.config)) \
            == (None if fresh is None else _template_key(fresh))
    assert memo.hits + memo.misses == len(points)
    assert memo.hits > 0 and memo.misses > 0


# ----------------------------------------------------------------------
# The CLI sweep against the event-engine oracle.
# ----------------------------------------------------------------------
def test_cli_sweep_matches_event_oracle(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--only", "crc", "--arrays", "C1,C3",
                 "--slots", "16", "--spec", "both",
                 "--no-cache", "--json", str(out)])
    assert code == 0
    configs = [paper_system(array, 16, spec)
               for array in ("C1", "C3") for spec in (False, True)]
    oracle = event_matrix(configs, ["crc"])
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
