"""Future work #2 of the paper: "techniques to switch off functional
units when they are being not used".

With line-level power gating, only the lines a configuration actually
occupies burn interconnect/static energy during execution.  This bench
quantifies the saving per array size: the bigger the array, the larger
the fraction of idle lines, so gating matters most exactly where the
speedup is best (C#3).
"""

import pytest

from repro.analysis import format_table
from repro.system import paper_system
from repro.system.colreplay import evaluate_trace_columnar
from repro.system.energy import EnergyParams, energy_of

WORKLOADS = ("rijndael_e", "sha", "jpeg_e", "quicksort", "rawaudio_d",
             "stringsearch")


def test_fu_gating_saves_array_energy(benchmark, traces, baselines,
                                      table2_sweep, capsys):
    plain_params = EnergyParams()
    gated_params = EnergyParams(fu_gating=True)
    rows = []
    savings = {}
    for array in ("C1", "C2", "C3"):
        total_plain = total_gated = total_base = 0.0
        occupancy_num = occupancy_den = 0
        for name in WORKLOADS:
            metrics = table2_sweep[(name, array, True, 64)]
            total_plain += energy_of(metrics, plain_params).total
            total_gated += energy_of(metrics, gated_params).total
            total_base += energy_of(baselines[name], plain_params).total
            occupancy_num += metrics.dim.array_line_cycles
            occupancy_den += metrics.dim.array_potential_line_cycles
        saving = 1.0 - total_gated / total_plain
        savings[array] = saving
        rows.append([
            array,
            occupancy_num / occupancy_den,
            total_base / total_plain,
            total_base / total_gated,
            saving,
        ])
    table = format_table(
        ["array", "line occupancy", "energy ratio (no gating)",
         "energy ratio (gated)", "total energy saved"],
        rows, title="Future work — switching off unused lines "
                    "(64 slots, speculation)")
    with capsys.disabled():
        print("\n" + table + "\n")

    # gating always helps, and helps most on the biggest array
    assert all(s > 0 for s in savings.values())
    assert savings["C3"] > savings["C1"]
    # occupancy is far below 1 on C3 — the paper's motivation
    assert rows[2][1] < 0.6

    config = paper_system("C3", 64, True)
    trace = traces["quicksort"]
    benchmark.pedantic(
        lambda: energy_of(evaluate_trace_columnar(trace, config),
                          gated_params),
        rounds=1, iterations=1)
