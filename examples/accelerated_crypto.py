"""Accelerating compiled code: a mini-C SHA-1 kernel under DIM.

Compiles a C-subset SHA-1 implementation with the bundled mini-C
compiler, then compares the standalone MIPS against three coupled
systems (the paper's C#1..C#3 arrays), reporting speedup, energy and
the DIM engine's own statistics — the paper's Table 2 workflow on a
single workload.

Run:  python examples/accelerated_crypto.py
"""

from repro.system import paper_system, replay_matrix
from repro.system.energy import energy_of, energy_ratio
from repro.workloads import load_workload, run_workload


def main() -> None:
    program = load_workload("sha")
    print(f"compiled mini-C SHA-1: {program.num_instructions()} static "
          "instructions")

    plain = run_workload("sha")
    configs = [paper_system(array, slots=64, speculation=spec)
               for array in ("C1", "C2", "C3") for spec in (False, True)]
    baselines, cells = replay_matrix({"sha": plain.trace}, configs)["sha"]
    base = baselines[configs[0].timing]
    print(f"plain MIPS: {plain.output.strip()!r}, "
          f"{base.cycles:,} cycles, CPI={base.cpi:.2f}\n")

    header = (f"{'system':24s} {'cycles':>10s} {'speedup':>8s} "
              f"{'energy x':>9s} {'hit rate':>9s} {'misspec':>8s}")
    print(header)
    print("-" * len(header))
    for config, metrics in zip(configs, cells):
        hit_rate = metrics.cache_hits / max(1, metrics.cache_lookups)
        print(f"{config.name:24s} {metrics.cycles:>10,d} "
              f"{base.cycles / metrics.cycles:>7.2f}x "
              f"{energy_ratio(base, metrics):>8.2f}x "
              f"{hit_rate:>8.1%} {metrics.dim.misspeculations:>8d}")

    breakdown = energy_of(cells[-1])  # the last config is C3/64/spec
    print("\nenergy breakdown at C3/spec (fraction of total):")
    for component, power in breakdown.component_power().items():
        share = power / breakdown.power_per_cycle
        print(f"  {component:6s} {share:6.1%}  {'#' * int(share * 40)}")


if __name__ == "__main__":
    main()
