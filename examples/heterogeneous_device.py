"""The paper's motivating scenario: one device, many behaviours.

Section 5.1 argues that a multi-functional embedded device running
RawAudio decoding, JPEG encoding/decoding and StringSearch would need
~45 distinct basic blocks mapped to reconfigurable logic to double its
performance — hopeless for kernel-centric approaches, and exactly where
DIM's any-block, run-time translation pays off.

This example reproduces that argument with measurements: first the
Figure 3a-style coverage analysis across the four applications, then the
transparent speedup DIM actually delivers on each.

Run:  python examples/heterogeneous_device.py
"""

from repro.analysis import block_profile, blocks_for_coverage
from repro.system import paper_system, replay_matrix
from repro.workloads import run_workload

DEVICE_APPS = ("rawaudio_d", "jpeg_e", "jpeg_d", "stringsearch")


def main() -> None:
    print("== the kernel-mapping problem "
          "(how many blocks must a static approach implement?) ==\n")
    total_blocks_for_2x = 0
    for name in DEVICE_APPS:
        trace = run_workload(name).trace
        profile = block_profile(trace)
        coverage = blocks_for_coverage(profile, fractions=(0.5, 0.8, 1.0))
        # covering 50% of execution is what a 2x ideal speedup requires
        total_blocks_for_2x += coverage[0.5]
        print(f"{name:14s}: {coverage[0.5]:3d} blocks for 50% of "
              f"execution, {coverage[0.8]:3d} for 80%, "
              f"{coverage[1.0]:3d} total  "
              f"({profile.instructions_per_branch:.1f} instr/branch)")
    print(f"\n-> a static kernel-mapping design would have to implement "
          f"~{total_blocks_for_2x} distinct blocks\n   in hardware just "
          "to halve this device's execution time (the paper estimates "
          "~45).\n")

    print("== what DIM does instead (C#2, 64 slots, speculation) ==\n")
    config = paper_system("C2", slots=64, speculation=True)
    rows = replay_matrix({name: run_workload(name).trace
                          for name in DEVICE_APPS}, [config])
    total_base = 0
    total_accel = 0
    for name, (baselines, (metrics,)) in rows.items():
        base = baselines[config.timing]
        total_base += base.cycles
        total_accel += metrics.cycles
        print(f"{name:14s}: {base.cycles:>9,d} -> {metrics.cycles:>9,d} "
              f"cycles  ({base.cycles / metrics.cycles:.2f}x), "
              f"{metrics.dim.translations} translations at run time, "
              "zero toolchain changes")
    print(f"\nwhole device   : {total_base:,} -> {total_accel:,} cycles "
          f"({total_base / total_accel:.2f}x) — transparently.")


if __name__ == "__main__":
    main()
