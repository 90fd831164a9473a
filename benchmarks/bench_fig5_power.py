"""Figure 5 — average power per cycle, broken down by component.

The paper plots Rijndael E. (most dataflow), RawAudio D. (most control)
and JPEG E. (mid-range) on configurations C#1 and C#3 with 64 cache
slots, with and without speculation, against the standalone MIPS.
"""

import pytest

from repro.analysis import format_table
from repro.system import paper_system
from repro.system.colreplay import evaluate_trace_columnar
from repro.system.energy import energy_of

WORKLOADS = ("rijndael_e", "rawaudio_d", "jpeg_e")
COMPONENTS = ("core", "imem", "dmem", "array", "bt")


def test_fig5_power_breakdown(benchmark, traces, baselines, table2_sweep,
                              capsys):
    rows = []
    for name in WORKLOADS:
        base_energy = energy_of(baselines[name])
        power = base_energy.component_power()
        rows.append([f"{name} / MIPS"]
                    + [power[c] for c in COMPONENTS]
                    + [base_energy.power_per_cycle])
        for array in ("C1", "C3"):
            for spec in (False, True):
                breakdown = energy_of(table2_sweep[(name, array, spec, 64)])
                power = breakdown.component_power()
                tag = "spec" if spec else "no-spec"
                rows.append([f"{name} / {array} {tag}"]
                            + [power[c] for c in COMPONENTS]
                            + [breakdown.power_per_cycle])
    table = format_table(["system"] + list(COMPONENTS) + ["total"], rows,
                         title="Figure 5 — average power per cycle "
                               "(pJ/cycle, calibrated units)")
    with capsys.disabled():
        print("\n" + table + "\n")

    by_name = {row[0]: row[1:] for row in rows}
    for name in WORKLOADS:
        mips = by_name[f"{name} / MIPS"]
        accel = by_name[f"{name} / C3 spec"]
        imem_index = COMPONENTS.index("imem")
        array_index = COMPONENTS.index("array")
        # the paper's mechanism: I-memory power falls (no fetches for
        # translated code), array+cache power appears
        assert accel[imem_index] < mips[imem_index]
        assert accel[array_index] > 0
        assert mips[array_index] == 0

    config = paper_system("C3", 64, True)
    trace = traces["jpeg_e"]
    benchmark.pedantic(
        lambda: energy_of(evaluate_trace_columnar(trace, config)),
        rounds=3, iterations=1)
