"""Quickstart: accelerate a hand-written MIPS program, transparently.

Assembles a small checksum kernel and runs it through ``repro.run``:
the program executes once on the plain MIPS core, and its trace replays
through the MIPS + DIM + reconfigurable array system.  The binary is
untouched while the cycle count drops; the test suite's coupled
simulator proves the accelerated system computes the same results.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.asm import assemble
from repro.system import paper_system

SOURCE = """
        .data
buffer: .space 256
        .text
__start:
        # fill the buffer with a simple pattern
        la   $t0, buffer
        li   $t1, 0
fill:
        sb   $t1, 0($t0)
        addiu $t0, $t0, 1
        addiu $t1, $t1, 1
        blt  $t1, 256, fill

        # rotating-xor checksum over the buffer, several passes
        li   $s0, 0            # pass counter
        li   $s2, 0            # checksum
passes:
        la   $t0, buffer
        li   $t1, 0
sum:
        lbu  $t2, 0($t0)
        sll  $t3, $s2, 5
        srl  $t4, $s2, 27
        or   $t3, $t3, $t4
        addu $s2, $t3, $t2
        addiu $t0, $t0, 1
        addiu $t1, $t1, 1
        blt  $t1, 256, sum
        addiu $s0, $s0, 1
        blt  $s0, 40, passes

        # print the checksum and exit
        move $a0, $s2
        li   $v0, 34           # print as hex
        syscall
        li   $v0, 10
        syscall
"""


def main() -> None:
    program = assemble(SOURCE)
    print(f"assembled {program.num_instructions()} instructions "
          f"at 0x{program.text_base:08x}\n")

    config = paper_system("C3", slots=64, speculation=True)
    result = api.run(program, config)
    plain, accelerated = result.plain, result.accelerated
    print(f"plain MIPS   : output={plain.output}  "
          f"cycles={plain.stats.cycles:,}")
    print(f"MIPS + DIM   : output={accelerated.output}  "
          f"cycles={accelerated.stats.cycles:,}")

    dim = accelerated.dim_stats
    print(f"\nspeedup      : {result.speedup:.2f}x  "
          "(same binary, same results)")
    print(f"DIM activity : {dim.translations} translations, "
          f"{dim.array_executions:,} array executions, "
          f"{dim.array_instructions:,} instructions executed on the array")
    print(f"cache        : {accelerated.cache_hits:,} hits / "
          f"{accelerated.cache_lookups:,} lookups")


if __name__ == "__main__":
    main()
