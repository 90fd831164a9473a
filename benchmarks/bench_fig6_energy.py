"""Figure 6 — total energy consumption.

Same setting as Figure 5, plus the paper's headline claim: with
configuration #2 and 64 cache slots the coupled system consumes 1.73x
less energy on average than the standalone MIPS.
"""

import pytest

from paper_data import PAPER_ENERGY_RATIO_C2_64
from repro.analysis import format_table
from repro.system import paper_system
from repro.system.colreplay import evaluate_trace_columnar
from repro.system.energy import (
    EnergyParams,
    energy_of,
    energy_ratio,
    iso_performance_energy_ratio,
)
from repro.workloads import workload_names

WORKLOADS = ("rijndael_e", "rawaudio_d", "jpeg_e")


def test_fig6_energy_per_workload(benchmark, traces, baselines,
                                  table2_sweep, capsys):
    rows = []
    for name in WORKLOADS:
        base_total = energy_of(baselines[name]).total
        row = [name, base_total / 1e6]
        for array in ("C1", "C3"):
            for spec in (False, True):
                metrics = table2_sweep[(name, array, spec, 64)]
                row.append(energy_of(metrics).total / 1e6)
        rows.append(row)
    table = format_table(
        ["algorithm", "MIPS", "C1 no-spec", "C1 spec", "C3 no-spec",
         "C3 spec"],
        rows,
        title="Figure 6 — total energy (uJ-equivalent, calibrated units)")
    with capsys.disabled():
        print("\n" + table)
        print("(C#3 is 150 always-powered lines in this model: on "
              "control-heavy workloads its\nstatic energy can exceed the "
              "saving — the paper's future-work FU gating fixes\n"
              "exactly this; see bench_future_fu_gating.)\n")

    gated = EnergyParams(fu_gating=True)
    for row in rows:
        # C#1 (the small array) always saves energy outright
        assert row[2] < row[1] and row[3] < row[1]
    for name in WORKLOADS:
        # and with FU gating, even C#3 saves energy on every workload
        metrics = table2_sweep[(name, "C3", True, 64)]
        assert energy_of(metrics, gated).total \
            < energy_of(baselines[name], gated).total

    trace = traces["rijndael_e"]
    config = paper_system("C3", 64, True)
    benchmark.pedantic(
        lambda: energy_of(evaluate_trace_columnar(trace, config)).total,
        rounds=3, iterations=1)


def test_fig6_average_ratio_c2_64(benchmark, traces, baselines,
                                  table2_sweep, capsys):
    """The paper's headline: 1.73x less energy at C#2 / 64 slots."""
    config = paper_system("C2", 64, True)
    benchmark.pedantic(
        lambda: energy_ratio(baselines["crc"],
                             evaluate_trace_columnar(traces["crc"],
                                                     config)),
        rounds=1, iterations=1)
    product = 1.0
    iso_product = 1.0
    rows = []
    for name in workload_names():
        metrics = table2_sweep[(name, "C2", True, 64)]
        ratio = energy_ratio(baselines[name], metrics)
        iso = iso_performance_energy_ratio(baselines[name], metrics)
        product *= ratio
        iso_product *= iso
        rows.append([name, ratio, iso])
    geomean = product ** (1.0 / len(rows))
    rows.append(["GEOMEAN (ours)", geomean,
                 iso_product ** (1.0 / len(rows))])
    rows.append(["paper", PAPER_ENERGY_RATIO_C2_64, "(not quantified)"])
    table = format_table(
        ["algorithm", "energy ratio", "iso-performance (f/V scaled)"],
        rows,
        title="Figure 6 — energy savings at C#2 / 64 slots, with "
              "speculation")
    with capsys.disabled():
        print("\n" + table + "\n")
    # calibrated to the paper's 1.73x; keep a generous band so the model
    # stays honest rather than curve-fit per workload
    assert 1.4 <= geomean <= 2.1
