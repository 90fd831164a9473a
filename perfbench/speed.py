"""Host speed calibration for the measured CPU.

A shared host changes speed from second to second, and differently on
each of its virtual CPUs (other tenants' work on the sibling hardware
thread), by up to 2x on the 2-vCPU host this was tuned on.  A process's
CPU time does not see that: the same ``repro run`` used 1.3 s of CPU in
a quiet minute and 2.4 s in a busy one.

So the benchmark pins the program's processes to one CPU and runs a
:class:`Probe` beside them on that same CPU: a process that times a
short slice of a fixed pure-Python kernel every :data:`INTERVAL_S`.
An op's CPU time is then reported at the reference speed, scaled by
the probe's mean slice time over the op's wall-clock window
(:data:`REFERENCE_PASS_S` per kernel pass).  Timed on another CPU the
kernel did not follow the op (correlation 0.0); on the same CPU it did
(0.65 for ``repro run``, 0.99 for sweeps): eight consecutive sweeps
used 19-28 s of CPU, and their scaled times stayed within 6% of each
other.  The probe takes about a twentieth of the measured CPU.

    python3 perfbench/speed.py <cpu>     # the probe: "<time> <pass s>" lines
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from pathlib import Path
from typing import Iterator, List, Set, Tuple

#: CPU seconds of one kernel pass the scaled times are reported at
#: (about one pass in a quiet minute of the tuning host).
REFERENCE_PASS_S = 0.025
#: kernel steps of one pass, and of one probe slice (a fifth of a pass).
PASS_STEPS = 60000
SLICE_STEPS = 12000
#: wall seconds between the probe's slices.
INTERVAL_S = 0.1


def measured_cpu() -> int:
    """The CPU the measured program runs on: the last one allowed."""
    return max(os.sched_getaffinity(0))


def other_cpus(cpu: int) -> Set[int]:
    """The allowed CPUs but ``cpu`` (all of them on a 1-CPU host)."""
    return (os.sched_getaffinity(0) - {cpu}) or {cpu}


@contextlib.contextmanager
def on_cpus(cpus: Set[int]) -> Iterator[None]:
    """Run this process, and every process it starts meanwhile, on
    ``cpus`` only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _kernel(steps: int) -> int:
    """Register-file and memory traffic of an interpreted simulator:
    list and dict reads and writes, integer arithmetic, branches."""
    regs = [0] * 32
    memory = {}
    acc = 0
    for step in range(steps):
        reg = step & 31
        regs[reg] = (regs[reg] + step * 2654435761) & 0xFFFFFFFF
        memory[reg ^ 7] = regs[reg] >> 3
        acc ^= memory.get(step & 15, 0)
        if acc & 1:
            acc = (acc >> 1) | 0x80000000
    return acc


def scaled(cpu_s: float, pass_s: float) -> float:
    """``cpu_s`` measured while a kernel pass took ``pass_s``, at the
    reference speed."""
    return cpu_s * REFERENCE_PASS_S / pass_s


class Probe:
    """The speed probe process, pinned to ``cpu``; its samples go to
    ``path``."""

    def __init__(self, reaper, cpu: int, path: Path):
        self.reaper = reaper
        self.cpu = cpu
        self.path = path
        self.proc = None

    def __enter__(self) -> "Probe":
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        with open(self.path, "w") as out:
            self.proc = self.reaper.popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(self.cpu)], env, out)
        return self

    def __exit__(self, *exc) -> None:
        self.reaper.stop(self.proc, grace=1.0)

    def samples(self) -> List[Tuple[float, float]]:
        """``(monotonic time, pass seconds)`` of every slice so far."""
        out = []
        for line in self.path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                out.append((float(fields[0]), float(fields[1])))
        return out

    def pass_s(self, start: float, end: float) -> float:
        """Mean pass time over the window ``[start, end]`` (monotonic
        clock); the nearest slice when none fell inside it."""
        samples = self.samples()
        if not samples:
            raise RuntimeError("the speed probe recorded nothing")
        inside = [s for at, s in samples if start <= at <= end]
        if not inside:
            inside = [min(samples, key=lambda t: abs(t[0] - end))[1]]
        return sum(inside) / len(inside)

    def scaled(self, cpu_s: float, start: float, end: float) -> float:
        return scaled(cpu_s, self.pass_s(start, end))


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    while True:
        begin = time.thread_time()
        _kernel(SLICE_STEPS)
        spent = time.thread_time() - begin
        print(f"{time.monotonic():.6f} {spent * PASS_STEPS / SLICE_STEPS:.9f}",
              flush=True)
        time.sleep(INTERVAL_S)


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
