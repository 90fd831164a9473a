"""Shape-space search (on :mod:`repro.dse`) and configuration
rendering."""

import pytest

from repro.asm import assemble
from repro.cgra.render import render_configuration
from repro.cgra.shape import ArrayShape
from repro.dim import BimodalPredictor, DimParams, Translator
from repro.dse import ParameterSpace, TraceRunner, explore
from repro.minic import compile_to_program
from repro.sim import Simulator, run_program
from repro.system import PAPER_SHAPES

KERNEL = """
unsigned a[32];
int main() {
    int i; int p;
    unsigned acc = 1;
    for (p = 0; p < 10; p++) {
        for (i = 0; i < 32; i++) {
            acc = acc * 31 + a[i];
            a[i] = acc >> 3;
        }
    }
    print_int(acc & 0xffff);
    return 0;
}
"""

GRID = [
    ArrayShape(rows=8, alus_per_row=4, mults_per_row=1, ldsts_per_row=2,
               immediate_slots=16),
    ArrayShape(rows=24, alus_per_row=8, mults_per_row=1, ldsts_per_row=2,
               immediate_slots=48),
    ArrayShape(rows=48, alus_per_row=8, mults_per_row=2, ldsts_per_row=6,
               immediate_slots=96),
]


@pytest.fixture(scope="module")
def kernel_traces():
    result = run_program(compile_to_program(KERNEL), collect_trace=True)
    return {"kernel": result.trace}


def _search(traces, area_budget_gates=None):
    space = ParameterSpace.for_shapes(GRID,
                                      area_budget_gates=area_budget_gates)
    runner = TraceRunner(space, traces)
    return space, runner, runner.evaluate(space.candidates())


def _efficiency(evaluation):
    return evaluation.geomean_speedup / (evaluation.gates / 1e6)


def test_search_ranks_by_speedup(kernel_traces):
    _, _, evaluations = _search(kernel_traces)
    ranked = sorted(evaluations, key=lambda e: -e.geomean_speedup)
    assert len(ranked) == 3
    assert all(e.geomean_speedup >= 1.0 for e in ranked)
    assert all(e.gates > 0 for e in ranked)
    # the biggest array wins on raw speedup
    assert ranked[0].gates == max(e.gates for e in ranked)


def test_search_efficiency_ranking_differs(kernel_traces):
    _, _, evaluations = _search(kernel_traces)
    by_speed = sorted(evaluations, key=lambda e: -e.geomean_speedup)
    by_eff = sorted(evaluations, key=lambda e: -_efficiency(e))
    assert by_eff[0].gates == min(e.gates for e in evaluations)
    assert [e.system for e in by_eff] != [e.system for e in by_speed]


def test_search_budget_prunes(kernel_traces):
    _, _, evaluations = _search(kernel_traces)
    cheapest = min(e.gates for e in evaluations)
    space, runner, limited = _search(kernel_traces,
                                     area_budget_gates=cheapest)
    assert len(limited) == 1
    assert limited[0].gates == cheapest
    # pruned before any simulation happened
    assert runner.stats.cells == len(kernel_traces)


def test_search_rejects_bad_ranking(kernel_traces):
    space, runner, _ = _search(kernel_traces)
    with pytest.raises(ValueError, match="speedup"):
        explore(space=space, objectives=("vibes",), runner=runner)


def test_pareto_front_properties(kernel_traces):
    space, runner, evaluations = _search(kernel_traces)
    front = explore(space=space, objectives=("speedup", "area"),
                    runner=runner).points
    assert front
    front = sorted(front, key=lambda e: e.gates)
    gates = [e.gates for e in front]
    speeds = [e.geomean_speedup for e in front]
    assert gates == sorted(gates)
    assert speeds == sorted(speeds)
    # dominated points are excluded
    systems = {e.system for e in front}
    for evaluation in evaluations:
        if evaluation.system not in systems:
            assert any(o.gates <= evaluation.gates
                       and o.geomean_speedup >= evaluation.geomean_speedup
                       for o in front)


# --- rendering ---------------------------------------------------------------

def test_render_configuration_contents():
    source = """
        addiu $t0, $t0, 1
        sll $t1, $t0, 2
        lw $t2, 0($t1)
        mult $t2, $t0
        mflo $t3
        jr $ra
    """
    sim = Simulator(assemble(source))
    translator = Translator(PAPER_SHAPES["C1"], DimParams(),
                            BimodalPredictor(64), sim.block_at)
    config = translator.translate(sim.block_at(sim.pc))
    text = render_configuration(config)
    assert "[A] addiu $t0, $t0, 1" in text
    assert "[L] lw $t2" in text
    assert "[M] mult" in text
    assert "input context" in text
    assert "$t0" in text
    assert "hi" in text and "lo" in text
    assert f"{config.exec_cycles} cycles" in text


def test_render_truncates_wide_lines():
    source = "\n".join(f"addiu $t{i % 8}, $zero, {i}" for i in range(12)) \
        + "\njr $ra\n"
    sim = Simulator(assemble(source))
    shape = ArrayShape(rows=4, alus_per_row=16, mults_per_row=1,
                       ldsts_per_row=2, immediate_slots=32)
    translator = Translator(shape, DimParams(), BimodalPredictor(64),
                            sim.block_at)
    config = translator.translate(sim.block_at(sim.pc))
    text = render_configuration(config, max_ops_per_line=4)
    assert "more)" in text
