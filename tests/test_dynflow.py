"""Dynamic control-flow translation (``DimParams.dynflow_mode``).

Five families of guarantees:

1. Params: the mode vocabulary is closed at construction time, with
   the valid values named in the error.
2. Translator: loop-aware closure builds iterating configurations
   (bounded by body size and rotating-register carry), predicated
   dual-path merge translates both directions of an unsaturated
   branch; both kinds are never extendable.
3. Transparency: every mode stays architecturally bit-identical to the
   plain core, and the trace evaluator stays cycle-identical to the
   coupled simulator — including the new ``dynflow.*`` accounting.
4. The columnar engine is byte-identical to the event engine for every
   mode x workload x configuration cell, including through an inline
   serve service and a real two-worker fleet on the dynflow stress
   corpus profiles (``loopy``/``divergent``).
5. Observability and search: the ``dynflow.*`` counters/events live in
   the closed :mod:`repro.obs` schema and ``dynflow_space()`` opens
   the mode axis over the default exploration grid.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.asm import assemble
from repro.cgra.shape import ArrayShape
from repro.corpus import CorpusKnobs, generate_corpus, register_corpus
from repro.dim import BimodalPredictor, DimParams, Translator
from repro.dim.memo import TranslationMemo
from repro.dim.params import DYNFLOW_MODES
from repro.minic import compile_to_program
from repro.obs import EVENT_TYPES, Telemetry, engine_counters
from repro.obs.schema import DYNFLOW_COUNTERS
from repro.sim import Simulator, run_program
from repro.system import evaluate_trace, paper_system
from repro.system.colreplay import ColumnarContext, evaluate_trace_columnar
from repro.system.coupled import run_coupled
from tests.oracle import event_matrix

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

MODES = ("off", "loop", "dual", "both")

PROGRAMS = {
    "loops": """
    unsigned tab[64];
    int main() {
        int i; int j;
        unsigned acc = 1;
        for (i = 0; i < 64; i++) { tab[i] = i * 2654435761; }
        for (j = 0; j < 20; j++) {
            for (i = 0; i < 64; i++) {
                acc = acc ^ (tab[i] + (acc << 3)) + (acc >> 5);
                tab[i] = acc;
            }
        }
        print_int(acc & 0x7fffffff);
        return 0;
    }
    """,
    "branchy": """
    int main() {
        int i;
        int odd = 0;
        int even = 0;
        unsigned seed = 77;
        for (i = 0; i < 3000; i++) {
            seed = seed * 1103515245 + 12345;
            if ((seed >> 16) & 1) { odd++; }
            else {
                if ((seed >> 17) & 1) { even += 2; } else { even++; }
            }
        }
        print_int(odd);
        print_char(' ');
        print_int(even);
        return 0;
    }
    """,
    "recursion": """
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() { print_int(fib(15)); return 0; }
    """,
    "phase_change": """
    int main() {
        int i;
        int a = 0;
        for (i = 0; i < 2000; i++) {
            if (i < 1000) { a += 1; } else { a += 3; }
        }
        print_int(a);
        return 0;
    }
    """,
}

#: the DimStats fields both execution paths must agree on exactly.
_DIM_FIELDS = (
    "translations", "array_executions", "array_instructions",
    "misspeculations", "full_commits", "flushes", "config_writes",
    "array_cycles", "array_line_cycles", "loop_executions", "loop_trips",
    "loop_configs", "loop_retired", "dual_executions", "dual_configs",
    "dual_squashed_instructions", "dual_retired",
)


def with_mode(config, mode, **dim_overrides):
    return dataclasses.replace(
        config,
        dim=dataclasses.replace(config.dim, dynflow_mode=mode,
                                **dim_overrides),
        name=f"{config.name}+{mode}")


@pytest.fixture(scope="module")
def plain_runs():
    runs = {}
    for name, source in PROGRAMS.items():
        program = compile_to_program(source)
        runs[name] = (program, run_program(program, collect_trace=True))
    return runs


# ----------------------------------------------------------------------
# 1. Params validation.
# ----------------------------------------------------------------------
def test_dynflow_mode_vocabulary_is_closed():
    assert set(DYNFLOW_MODES) == set(MODES)
    with pytest.raises(ValueError) as excinfo:
        DimParams(dynflow_mode="looop")
    for mode in DYNFLOW_MODES:
        assert mode in str(excinfo.value)


def test_mode_switches():
    assert not DimParams().loop_enabled
    assert not DimParams().dual_enabled
    assert DimParams(speculation=True, dynflow_mode="loop").loop_enabled
    assert DimParams(speculation=True, dynflow_mode="dual").dual_enabled
    both = DimParams(speculation=True, dynflow_mode="both")
    assert both.loop_enabled and both.dual_enabled
    # both modes ride on the speculative translation walk
    assert not DimParams(dynflow_mode="loop").loop_enabled
    assert not DimParams(dynflow_mode="dual").dual_enabled


def test_loop_knobs_validated():
    with pytest.raises(ValueError):
        DimParams(loop_max_body_blocks=0)
    with pytest.raises(ValueError):
        DimParams(loop_carry_regs=-1)
    with pytest.raises(ValueError):
        DimParams(loop_exit_check_cycles=-1)
    with pytest.raises(ValueError):
        DimParams(dual_gate_cycles=-1)


# ----------------------------------------------------------------------
# 2. Translator units.
# ----------------------------------------------------------------------
SHAPE = ArrayShape(rows=16, alus_per_row=4, mults_per_row=1,
                   ldsts_per_row=2, immediate_slots=32)

SELF_LOOP = """
top:
    addiu $t0, $t0, 1
    addiu $t1, $t1, 2
    addu $t2, $t0, $t1
    sll $t3, $t2, 2
    bne $t0, $t1, top
"""

DIAMOND = """
    addiu $t0, $t0, 1
    addiu $t1, $t1, 2
    addu $t2, $t0, $t1
    sll $t3, $t2, 2
    beq $t0, $t1, then
    addiu $t4, $t4, 1
    addiu $t5, $t5, 2
    addu $t6, $t4, $t5
    addu $t7, $t6, $t4
    jr $ra
then:
    addiu $s0, $s0, 3
    addiu $s1, $s1, 4
    addu $s2, $s0, $s1
    addu $s3, $s2, $s0
    jr $ra
"""


def make_translator(sim, **kwargs):
    params = DimParams(**kwargs)
    predictor = BimodalPredictor(64)

    def provider(pc):
        try:
            return sim.block_at(pc)
        except Exception:
            return None

    return Translator(SHAPE, params, predictor, provider), predictor


def test_loop_closure_builds_iterating_configuration():
    sim = Simulator(assemble(SELF_LOOP))
    translator, predictor = make_translator(sim, speculation=True,
                                            dynflow_mode="loop")
    block = sim.block_at(sim.pc)
    for _ in range(2):
        predictor.update(block.branch_pc, True)
    config = translator.translate(block)
    assert config.kind == "loop"
    assert not config.extendable
    assert config.blocks[-1].includes_terminator
    assert config.blocks[-1].expected_taken is True
    assert config.trip_cycles > 0
    # a continuation trip never costs more than a fresh entry
    assert config.trip_cycles <= config.exec_cycles


def test_loop_closure_requires_saturation_and_mode():
    sim = Simulator(assemble(SELF_LOOP))
    # saturated but mode off -> ordinary speculative merge, not a loop
    translator, predictor = make_translator(sim, speculation=True)
    block = sim.block_at(sim.pc)
    for _ in range(2):
        predictor.update(block.branch_pc, True)
    assert translator.translate(block).kind == "linear"
    # mode on but unsaturated -> no loop either
    translator, predictor = make_translator(sim, speculation=True,
                                            dynflow_mode="loop")
    assert translator.translate(sim.block_at(sim.pc)).kind == "linear"


def test_loop_carry_register_bound_gates_closure():
    sim = Simulator(assemble(SELF_LOOP))
    translator, predictor = make_translator(sim, speculation=True,
                                            dynflow_mode="loop",
                                            loop_carry_regs=1)
    block = sim.block_at(sim.pc)
    for _ in range(2):
        predictor.update(block.branch_pc, True)
    # the body carries several registers across the back edge; a
    # 1-register rotating file cannot hold them, so no loop closes
    assert translator.translate(block).kind == "linear"


def test_dual_merge_translates_both_directions():
    sim = Simulator(assemble(DIAMOND))
    translator, predictor = make_translator(sim, speculation=True,
                                            dynflow_mode="dual")
    config = translator.translate(sim.block_at(sim.pc))
    assert config.kind == "dual"
    assert not config.extendable
    assert config.dual_taken is not None
    assert config.dual_fallthrough is not None
    assert config.dual_taken.block.start_pc \
        != config.dual_fallthrough.block.start_pc
    # predication covers the shorter side unconditionally
    assert config.covered_instructions >= config.blocks[0].covered + min(
        config.dual_taken.covered, config.dual_fallthrough.covered)


def test_dual_merge_defers_to_saturated_speculation():
    sim = Simulator(assemble(DIAMOND))
    translator, predictor = make_translator(sim, speculation=True,
                                            dynflow_mode="dual")
    block = sim.block_at(sim.pc)
    for _ in range(2):
        predictor.update(block.branch_pc, True)
    # a saturated branch speculates as before; dual is for the
    # unsaturated ones speculation cannot touch
    assert translator.translate(block).kind == "linear"


# ----------------------------------------------------------------------
# 3. Transparency: plain core == coupled; coupled == trace evaluator.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES[1:])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_modes_are_transparent_and_cycle_exact(plain_runs, name, mode):
    program, plain = plain_runs[name]
    for base in (paper_system("C1", 16, True),
                 paper_system("C3", 64, True)):
        config = with_mode(base, mode)
        coupled = run_coupled(program, config)
        assert coupled.output == plain.output
        assert coupled.exit_code == plain.exit_code
        assert coupled.registers == plain.registers
        assert coupled.memory.snapshot_pages() \
            == plain.memory.snapshot_pages()
        metrics = evaluate_trace(plain.trace, config)
        assert metrics.cycles == coupled.stats.cycles
        assert metrics.instructions == coupled.stats.instructions
        assert metrics.loads == coupled.stats.loads
        assert metrics.stores == coupled.stats.stores
        for field_name in _DIM_FIELDS:
            assert getattr(metrics.dim, field_name) \
                == getattr(coupled.dim_stats, field_name), field_name
        assert metrics.cache_hits == coupled.cache_hits
        assert metrics.cache_lookups == coupled.cache_lookups


def test_loop_mode_amortises_reconfiguration(plain_runs):
    _, plain = plain_runs["loops"]
    base = paper_system("C1", 64, True)
    off = evaluate_trace(plain.trace, with_mode(base, "off"))
    loop = evaluate_trace(plain.trace, with_mode(base, "loop"))
    assert loop.dim.loop_executions > 0
    # many trips per entry: that is the amortisation
    assert loop.dim.loop_trips > 4 * loop.dim.loop_executions
    assert loop.cycles < off.cycles


def test_dual_mode_trades_squash_for_misspeculation(plain_runs):
    _, plain = plain_runs["branchy"]
    base = paper_system("C1", 64, True)
    off = evaluate_trace(plain.trace, with_mode(base, "off"))
    dual = evaluate_trace(plain.trace, with_mode(base, "dual"))
    assert dual.dim.dual_executions > 0
    assert dual.dim.dual_squashed_instructions > 0
    # both paths ride along, so mispredicted merges disappear
    assert dual.dim.misspeculations < off.dim.misspeculations


def test_loop_retires_when_backedge_saturates_toward_exit():
    """Once the back-edge counter saturates in the exit direction the
    loop phase is over: the configuration is invalidated and counted
    as retired, not flushed."""
    from repro.dim import DimEngine

    sim = Simulator(assemble(SELF_LOOP))
    engine = DimEngine(SHAPE, DimParams(cache_slots=8, speculation=True,
                                        dynflow_mode="loop"),
                       sim.block_at)
    block = sim.block_at(sim.pc)
    engine.observe_branch(block.branch_pc, True)
    engine.observe_branch(block.branch_pc, True)
    engine.consider_translation(block)
    config = engine.lookup(block.start_pc)
    assert config.kind == "loop"
    back = config.blocks[-1]
    flushes_before = engine.stats.flushes
    # drive the back-edge toward exit until the counter saturates
    while engine.stats.loop_retired == 0:
        assert engine.lookup(block.start_pc) is not None
        assert engine.loop_backedge(config, back, False) is False
    assert engine.lookup(block.start_pc) is None
    assert engine.cache.invalidations == 1
    assert engine.stats.flushes == flushes_before  # retire, not flush


def test_dual_retires_once_the_branch_saturates():
    from repro.dim import DimEngine

    sim = Simulator(assemble(DIAMOND))
    engine = DimEngine(SHAPE, DimParams(cache_slots=8, speculation=True,
                                        dynflow_mode="dual"),
                       sim.block_at)
    block = sim.block_at(sim.pc)
    engine.consider_translation(block)
    config = engine.lookup(block.start_pc)
    assert config.kind == "dual"
    while engine.stats.dual_retired == 0:
        winner = engine.dual_resolution(config, config.blocks[-1], True)
        assert winner is config.dual_taken
    assert engine.lookup(block.start_pc) is None
    assert engine.stats.dual_squashed_instructions \
        >= config.dual_fallthrough.covered


# ----------------------------------------------------------------------
# 4. Columnar byte-identity.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_columnar_matches_event_engine_per_mode(plain_runs, name):
    _, plain = plain_runs[name]
    context = ColumnarContext(plain.trace, name=name)
    memo = TranslationMemo()
    for base in (paper_system("C1", 4, True),
                 paper_system("C2", 16, True),
                 paper_system("C3", 64, True)):
        for mode in MODES:
            config = with_mode(base, mode)
            event = evaluate_trace(plain.trace, config, name=name,
                                   memo=memo)
            columnar = evaluate_trace_columnar(plain.trace, config,
                                               name=name,
                                               context=context)
            assert dataclasses.asdict(columnar) \
                == dataclasses.asdict(event), (base.name, mode)


def test_columnar_matches_event_engine_nondefault_knobs(plain_runs):
    _, plain = plain_runs["loops"]
    context = ColumnarContext(plain.trace, name="loops")
    base = paper_system("C1", 16, True)
    for overrides in ({"loop_max_body_blocks": 1},
                      {"loop_exit_check_cycles": 3},
                      {"loop_carry_regs": 2},
                      {"dual_gate_cycles": 2}):
        for mode in ("loop", "dual", "both"):
            config = with_mode(base, mode, **overrides)
            event = evaluate_trace(plain.trace, config)
            columnar = evaluate_trace_columnar(plain.trace, config,
                                               context=context)
            assert dataclasses.asdict(columnar) \
                == dataclasses.asdict(event), (overrides, mode)


# ----------------------------------------------------------------------
# 4b. The dynflow corpus profiles, across all four execution paths.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dynflow_corpus_names():
    from repro.workloads import unregister_generated

    names = []
    for seed, knobs in ((13, CorpusKnobs.loopy()),
                        (14, CorpusKnobs.divergent())):
        names.extend(register_corpus(
            generate_corpus(seed, 4, knobs=knobs)))
    yield names
    unregister_generated()  # keep the registry clean for later modules


def test_dynflow_profiles_byte_identical_across_engines(
        dynflow_corpus_names):
    shape = ArrayShape(rows=16, alus_per_row=4, mults_per_row=2,
                       ldsts_per_row=2)
    configs = [
        api.SystemSpec.of(shape, DimParams(
            cache_slots=16, speculation=True,
            dynflow_mode=mode)).build()
        for mode in MODES]
    event = event_matrix(configs, dynflow_corpus_names)
    columnar = api.sweep(configs, names=dynflow_corpus_names)
    assert event.results_json() == columnar.results_json()


def test_dynflow_profiles_byte_identical_through_serve_and_fleet(
        dynflow_corpus_names):
    """An inline serve service and a real two-worker fleet agree
    byte-for-byte with offline evaluation under every dynflow mode."""
    from repro.fleet import FleetCoordinator
    from repro.serve import EvalService, ServeClient, start_http

    names = dynflow_corpus_names[:3] + dynflow_corpus_names[4:7]
    shape = ArrayShape(rows=16, alus_per_row=4, mults_per_row=2,
                       ldsts_per_row=2)
    spec = api.SystemSpec.of(shape, DimParams(
        cache_slots=16, speculation=True, dynflow_mode="both"))
    config = spec.build()
    wire = spec.to_dict()
    offline = api.sweep([config], names=names)

    svc = EvalService(workers=0, cache_root=None, batch_window=0.0)
    svc.start()
    server, _ = start_http(svc)
    try:
        client = ServeClient("http://%s:%s" % server.server_address[:2],
                             timeout=300.0)
        job = client.submit("sweep", configs=[wire], names=names)
        payload = client.wait(job["job_id"], timeout=300)
        assert payload["state"] == "done"
        assert payload["result"]["matrix_json"] == offline.results_json()
    finally:
        svc.stop(drain=False)
        server.shutdown()

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
        jobs = {name: fclient.submit("evaluate", configs=[wire],
                                     names=[name])["job_id"]
                for name in names}
        expected = {name: api.evaluate(config, names=[name]).to_json()
                    for name in names}
        for name, job_id in jobs.items():
            payload = fclient.wait(job_id, timeout=300)
            assert payload["state"] == "done", name
            assert payload["result"]["suite_json"] == expected[name], name
        assert all(wsvc.stats.batches > 0 for wsvc, _, _ in workers)
    finally:
        fleet.stop(drain=False)
        fserver.shutdown()
        for wsvc, wserver, _ in workers:
            wsvc.stop(drain=False)
            wserver.shutdown()


# ----------------------------------------------------------------------
# 4c. Random-trace differential (hypothesis).
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @st.composite
    def _looping_programs(draw):
        """Programs mixing a hot counted loop (loop-mode fodder) with
        data-dependent diamonds (dual-mode fodder), always
        terminating."""
        seed = draw(st.integers(1, 2**30))
        outer = draw(st.integers(2, 6))
        inner = draw(st.integers(4, 24))
        shift = draw(st.integers(1, 7))
        threshold = draw(st.integers(0, 255))
        mask = draw(st.sampled_from([63, 255, 1023]))
        return f"""
int main() {{
    unsigned x = {seed};
    unsigned acc = 0;
    int i; int j;
    for (j = 0; j < {outer}; j++) {{
        for (i = 0; i < {inner}; i++) {{
            x = x * 1664525 + 1013904223;
            acc = acc ^ (x & {mask}) + (acc << 1);
        }}
        if (((x >> {shift}) & 255) < {threshold}) {{
            acc = acc + 7;
        }} else {{
            acc = acc * 3;
        }}
    }}
    print_int(acc & 0x7fffffff);
    return 0;
}}
"""

    @settings(max_examples=8, deadline=None)
    @given(_looping_programs(), st.sampled_from(MODES[1:]),
           st.sampled_from(["C1/8", "C3/64"]))
    def test_random_trace_loop_and_dual_accounting(source, mode, which):
        """Coupled and trace-replay agree on every dynflow counter for
        random loop/diamond mixes, and loop-trip accounting is
        conservative: trips never undercount entries."""
        array, slots = which.split("/")
        config = with_mode(paper_system(array, int(slots), True), mode)
        program = compile_to_program(source)
        plain = run_program(program, collect_trace=True,
                            max_instructions=2_000_000)
        assert plain.exit_code == 0
        coupled = run_coupled(program, config)
        assert coupled.output == plain.output
        metrics = evaluate_trace(plain.trace, config)
        assert metrics.cycles == coupled.stats.cycles
        for field_name in _DIM_FIELDS:
            assert getattr(metrics.dim, field_name) \
                == getattr(coupled.dim_stats, field_name), field_name
        assert metrics.dim.loop_trips >= metrics.dim.loop_executions
        assert metrics.dim.loop_configs >= metrics.dim.loop_retired
        assert metrics.dim.dual_configs >= metrics.dim.dual_retired

    @settings(max_examples=8, deadline=None)
    @given(_looping_programs(), st.sampled_from(MODES[1:]))
    def test_random_trace_columnar_differential(source, mode):
        config = with_mode(paper_system("C1", 8, True), mode)
        program = compile_to_program(source)
        plain = run_program(program, collect_trace=True,
                            max_instructions=2_000_000)
        assert plain.exit_code == 0
        assert dataclasses.asdict(
            evaluate_trace_columnar(plain.trace, config)) \
            == dataclasses.asdict(evaluate_trace(plain.trace, config))


# ----------------------------------------------------------------------
# 5. Observability and search integration.
# ----------------------------------------------------------------------
def test_dynflow_events_live_in_the_closed_schema():
    assert {"dynflow.loop_committed",
            "dynflow.dual_committed"} <= EVENT_TYPES
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        tel.emit("dynflow.loop_exploded", pc=0)


def test_dynflow_counters_export_through_engine_counters(plain_runs):
    program, _ = plain_runs["loops"]
    from repro.system.coupled import CoupledSimulator
    config = with_mode(paper_system("C1", 16, True), "both")
    tel = Telemetry()
    sim = CoupledSimulator(program, config, telemetry=tel)
    sim.run()
    counters = engine_counters(sim.engine)
    assert set(DYNFLOW_COUNTERS) <= set(counters)
    assert counters["dynflow.loop_executions"] > 0
    assert counters["dynflow.loop_trips"] \
        >= counters["dynflow.loop_executions"]
    types = {record.get("type") for record in tel.events}
    assert "dynflow.loop_committed" in types
    from repro.obs import validate_jsonl
    assert validate_jsonl(tel.events.to_jsonl().splitlines()) == []


def test_dynflow_space_opens_the_mode_axis():
    from repro.dse.space import default_space, dynflow_space
    space = dynflow_space()
    base = default_space()
    assert space.size == base.size * len(MODES)
    off_plane = {
        tuple(sorted((k, v) for k, v in c.as_dict().items()
                     if k != "dynflow_mode"))
        for c in space.candidates() if c.get("dynflow_mode") == "off"}
    assert off_plane == {tuple(sorted(c.as_dict().items()))
                         for c in base.candidates()}
    sample = space.candidates()[7]
    config = space.config_of(sample)
    assert config.dim.dynflow_mode == sample.get("dynflow_mode")


# ----------------------------------------------------------------------
# CLI reach and the committed smoke golden.
# ----------------------------------------------------------------------
def test_cli_dynflow_lowers_paper_arrays_to_shape_specs(tmp_path,
                                                        capsys):
    from repro.cli import main

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--only", "crc", "--arrays", "C1",
                 "--slots", "16", "--spec", "on",
                 "--no-cache", "--dynflow", "loop",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    (system,) = {entry["system"] for entry in report["systems"]}
    assert "dynflow_mode=loop" in system and system.startswith("r24x8a")


def test_cli_dynflow_rejects_ideal_and_default_matrix():
    from repro.cli import main

    with pytest.raises(SystemExit, match="ideal"):
        main(["sweep", "--only", "crc", "--arrays", "ideal",
              "--dynflow", "loop", "--no-cache"])
    with pytest.raises(SystemExit, match="explicit --arrays"):
        main(["sweep", "--only", "crc", "--dynflow", "loop",
              "--no-cache"])


def test_dynflow_smoke_frontier_matches_committed_golden():
    """The CI golden stays regenerable from the committed space."""
    from pathlib import Path

    from repro.dse import explore
    from repro.dse.space import load_space

    root = Path(__file__).parent.parent
    space = load_space(root / "examples" / "dynflow_smoke_space.json")
    result = explore(space=space, strategy="grid", seed=7,
                     objectives=("speedup", "area"),
                     workloads=("crc", "quicksort"))
    golden = (root / "tests" / "data"
              / "dynflow_smoke_frontier.json").read_text()
    assert result.to_json() + "\n" == golden
    # the frontier is won by a dynflow mode, not the off plane.
    assert all(point.candidate.get("dynflow_mode") != "off"
               for point in result.points)
