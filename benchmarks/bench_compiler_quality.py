"""How compiler quality changes the DIM picture.

Recompiles workloads with the peephole optimiser (store-to-load
forwarding) and re-runs the Table 2 design point.  Measured outcome:
the pass removes a few percent of instructions, and DIM's *relative*
speedup is essentially unchanged — the mechanism is robust to
peephole-level code cleanup.  (The redundancy behind EXPERIMENTS.md's
`-O0` overshoot discussion lives *across* loop iterations — locals
reloaded every trip — and removing it needs real register allocation,
not a peephole; within-window forwarding barely touches it.)  The
combined system (optimised code + DIM) is always the fastest option.
"""

import pytest

from repro.analysis import format_table
from repro.minic import compile_to_program
from repro.sim import run_program
from repro.system import paper_system, replay_matrix
from repro.workloads import get_workload

WORKLOADS = ("crc", "sha", "quicksort", "rawaudio_e", "dijkstra",
             "stringsearch")


def test_compiler_quality_vs_speedup(benchmark, capsys):
    config = paper_system("C3", 64, True)
    rows = []
    ratio_product = 1.0
    for name in WORKLOADS:
        source = get_workload(name).source
        results = {}
        for optimize in (False, True):
            program = compile_to_program(source, optimize=optimize)
            plain = run_program(program, collect_trace=True)
            # no artifact cache: the trace is not the registered build
            bases, (metrics,) = replay_matrix({name: plain.trace},
                                              [config])[name]
            results[optimize] = (plain, bases[config.timing], metrics)
        plain_o0, base_o0, accel_o0 = results[False]
        plain_o1, base_o1, accel_o1 = results[True]
        assert plain_o1.output == plain_o0.output
        speedup_o0 = base_o0.cycles / accel_o0.cycles
        speedup_o1 = base_o1.cycles / accel_o1.cycles
        ratio_product *= speedup_o1 / speedup_o0
        rows.append([
            name,
            plain_o0.stats.instructions,
            plain_o1.stats.instructions,
            speedup_o0,
            speedup_o1,
            base_o0.cycles / accel_o1.cycles,  # end-to-end vs -O0 MIPS
        ])
    table = format_table(
        ["workload", "instrs -O0", "instrs opt", "speedup -O0",
         "speedup opt", "combined vs -O0 MIPS"],
        rows,
        title="Compiler quality vs DIM speedup (C#3 / 64 / speculation)")
    with capsys.disabled():
        geo = ratio_product ** (1.0 / len(WORKLOADS))
        print("\n" + table)
        print(f"\nrelative DIM speedup is {geo:.2f}x of its -O0 value "
              "under the peephole pass:\nDIM's advantage is robust to "
              "window-local code cleanup, and optimised code\n+ DIM is "
              "always the fastest configuration (last column).\n")

    for row in rows:
        assert row[2] < row[1]        # optimiser removes instructions
        assert row[5] >= row[4] * 0.99  # combined system never loses
    # robustness: peephole-level cleanup barely moves DIM's relative gain
    geo = ratio_product ** (1.0 / len(WORKLOADS))
    assert 0.9 < geo < 1.1

    source = get_workload("crc").source
    benchmark.pedantic(
        lambda: compile_to_program(source, optimize=True),
        rounds=3, iterations=1)
