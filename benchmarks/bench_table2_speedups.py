"""Table 2 — speedups of the coupled MIPS+array system.

Regenerates the paper's headline table: every workload through array
configurations C#1/C#2/C#3 with and without speculation at 16/64/256
reconfiguration-cache slots, plus the Ideal (infinite resources) pair,
with the paper's published numbers printed alongside.
"""

import pytest

from paper_data import PAPER_TABLE2, PAPER_TABLE2_AVERAGE
from repro.analysis import format_table
from repro.system import PAPER_CACHE_SLOTS, paper_system
from repro.system.colreplay import evaluate_trace_columnar
from repro.workloads import workload_names

from conftest import ARRAYS, speedup_of


def _column_keys():
    for array in ARRAYS:
        for spec in (False, True):
            for slots in PAPER_CACHE_SLOTS:
                yield array, spec, slots


def test_table2_full_sweep(benchmark, traces, baselines, table2_sweep,
                           capsys):
    headers = ["algorithm"]
    for array, spec, slots in _column_keys():
        tag = "S" if spec else "N"
        headers.append(f"{array}/{tag}{slots}")
    headers += ["idl/N", "idl/S"]

    rows = []
    sums = [0.0] * (len(headers) - 1)
    for name in workload_names():
        row = [name]
        values = []
        for array, spec, slots in _column_keys():
            values.append(speedup_of(baselines, table2_sweep,
                                     (name, array, spec, slots)))
        values.append(speedup_of(baselines, table2_sweep,
                                 (name, "ideal", False, 0)))
        values.append(speedup_of(baselines, table2_sweep,
                                 (name, "ideal", True, 0)))
        for i, value in enumerate(values):
            sums[i] += value
        rows.append(row + values)
    count = len(workload_names())
    averages = ["AVERAGE (ours)"] + [s / count for s in sums]
    rows.append(averages)

    paper_row = ["AVERAGE (paper)"]
    for array, spec, slots in _column_keys():
        index = PAPER_CACHE_SLOTS.index(slots)
        paper_row.append(PAPER_TABLE2_AVERAGE[(array, spec)][index])
    paper_row += list(PAPER_TABLE2_AVERAGE["ideal"])
    rows.append(paper_row)

    table = format_table(headers, rows,
                         title="Table 2 — speedups vs standalone MIPS "
                               "(N = no speculation, S = speculation)")
    with capsys.disabled():
        print("\n" + table + "\n")

    # ---- shape assertions (who wins, where the sensitivities are) ----
    def avg(array, spec, slots):
        return sum(speedup_of(baselines, table2_sweep,
                              (n, array, spec, slots))
                   for n in workload_names()) / count

    assert avg("C3", False, 64) > avg("C1", False, 64)   # bigger array wins
    assert avg("C3", True, 64) > avg("C3", False, 64)    # speculation wins
    assert avg("C3", True, 256) >= avg("C3", True, 16)   # more slots help
    # every individual speedup is a real speedup
    for key, metrics in table2_sweep.items():
        assert baselines[key[0]].cycles >= metrics.cycles

    # rijndael is cache-slot sensitive on the big array, like the paper
    rij_16 = speedup_of(baselines, table2_sweep,
                        ("rijndael_e", "C3", False, 16))
    rij_256 = speedup_of(baselines, table2_sweep,
                         ("rijndael_e", "C3", False, 256))
    assert rij_256 > rij_16 * 1.3
    # CRC is completely insensitive to cache size, like the paper
    crc_16 = speedup_of(baselines, table2_sweep, ("crc", "C2", True, 16))
    crc_256 = speedup_of(baselines, table2_sweep, ("crc", "C2", True, 256))
    assert abs(crc_16 - crc_256) / crc_256 < 0.05

    # the timed kernel: one representative evaluation
    trace = traces["quicksort"]
    config = paper_system("C3", 64, True)
    benchmark.pedantic(lambda: evaluate_trace_columnar(trace, config),
                       rounds=3, iterations=1)


def test_table2_per_benchmark_vs_paper(benchmark, table2_sweep, baselines,
                                       capsys):
    """Side-by-side with the paper at the C#3 / 64-slot design point."""
    benchmark.pedantic(
        lambda: speedup_of(baselines, table2_sweep,
                           ("sha", "C3", True, 64)),
        rounds=3, iterations=1)
    rows = []
    for name in workload_names():
        ours_n = speedup_of(baselines, table2_sweep,
                            (name, "C3", False, 64))
        ours_s = speedup_of(baselines, table2_sweep,
                            (name, "C3", True, 64))
        paper_n = PAPER_TABLE2[name][("C3", False)][1]
        paper_s = PAPER_TABLE2[name][("C3", True)][1]
        rows.append([name, ours_n, paper_n, ours_s, paper_s])
    table = format_table(
        ["algorithm", "ours N", "paper N", "ours S", "paper S"], rows,
        title="Table 2 at C#3 / 64 slots — ours vs paper")
    with capsys.disabled():
        print("\n" + table + "\n")
