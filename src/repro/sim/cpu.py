"""The MIPS core: functional execution plus cycle accounting.

The simulator is deliberately *not* a structural pipeline model: the paper
reports cycle counts from a single-issue in-order core, and that timing is
captured exactly by per-instruction costs plus three penalty sources
(taken control transfers, the load-use interlock, and early HI/LO reads).
Interlock state resets at basic-block boundaries (the transfer bubble
hides any cross-block hazard), which makes every block's cost a static
property — the key fact that lets :mod:`repro.system.traceeval` replay
traces with cycle-exact agreement.

The core exposes a :meth:`Simulator.step` API so the coupled MIPS+DIM
simulator can interleave normal execution with array execution.

Production runs are block-compiled (:mod:`repro.sim.fastpath`) and
bit-identical to the per-instruction interpreter; ``fast=False`` selects
that interpreter, the reference the differential tests compare against.
Runs with caches configured always interpret.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter as _perf_counter
from typing import Dict, List, Optional, Tuple

from repro.asm.program import Program, STACK_TOP
from repro.isa.instruction import Instruction, decode
from repro.isa.opcodes import Format, InstrClass
from repro.isa.semantics import (
    alu_result,
    branch_taken,
    div_result,
    mult_result,
)
from repro.obs import NULL_TELEMETRY
from repro.sim.cache import CacheHierarchy
from repro.sim.memory import Memory
from repro.sim.stats import RunStats, TimingModel
from repro.sim.syscalls import handle_syscall
from repro.sim.trace import BasicBlock, BlockTable, Trace


class SimulationError(Exception):
    """Raised on illegal instructions, runaway loops, or bad PCs."""


@dataclass
class RunResult:
    """Outcome of one simulation."""

    exit_code: int
    output: str
    stats: RunStats
    trace: Optional[Trace]
    registers: List[int]
    memory: Memory

    @property
    def cycles(self) -> int:
        return self.stats.cycles


@dataclass(frozen=True)
class StepOutcome:
    """What one :meth:`Simulator.step` did."""

    block_end: bool
    taken: bool
    exited: bool
    pc: int       # address of the executed instruction
    next_pc: int


#: Decoded entry: (instruction, class, sources, dest, uses_immediate_b).
_DecodedEntry = Tuple[Instruction, InstrClass, Tuple[int, ...],
                      Optional[int], bool]


class Simulator:
    """Functional + cycle-accounting simulator for one program."""

    def __init__(self, program: Program,
                 timing: Optional[TimingModel] = None,
                 collect_trace: bool = False,
                 max_instructions: int = 200_000_000,
                 caches: Optional[CacheHierarchy] = None,
                 fast: bool = True,
                 telemetry=None):
        self.program = program
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.timing = timing or TimingModel()
        self.collect_trace = collect_trace
        self.caches = caches or CacheHierarchy()
        self.max_instructions = max_instructions
        self.memory = Memory()
        self.memory.load_program(program)
        self.regs: List[int] = [0] * 32
        self.regs[29] = STACK_TOP  # $sp
        self.pc = program.entry
        self.hi = 0
        self.lo = 0
        self.exit_code: Optional[int] = None
        self.output_parts: List[str] = []
        self._stats = RunStats()
        #: compiled blocks add their static counters here, packed
        #: (:func:`~repro.sim.stats.pack_counts`); :attr:`stats`
        #: folds the sum in whenever anyone reads the counters.
        self._pending = [0]
        self.block_table = BlockTable()
        # Decode results are a program property (text is immutable), so
        # every simulator of one Program shares a single decode cache.
        self._decoded: Dict[int, _DecodedEntry] = program.decode_cache
        self._trace_events = array("I")
        self._block_start = self.pc
        self._last_load_dest: Optional[int] = None
        self._hilo_ready = 0
        self._block_compiler = None
        # Cache timing is address-dependent, so the block compiler only
        # engages on the (default) ideal-memory configuration.
        if fast and self.caches.icache is None \
                and self.caches.dcache is None:
            from repro.sim.fastpath import FastPath
            self._block_compiler = FastPath(self)

    @property
    def stats(self) -> RunStats:
        """The run's counters, exact at every read."""
        packed = self._pending[0]
        if packed:
            self._pending[0] = 0
            self._stats.add_packed(packed)
        return self._stats

    # ------------------------------------------------------------------
    def decode_at(self, pc: int) -> _DecodedEntry:
        """Decode (with caching) the instruction at ``pc``."""
        entry = self._decoded.get(pc)
        if entry is None:
            word = self.memory.read_word(pc)
            instr = decode(word)
            if instr is None:
                raise SimulationError(
                    f"illegal instruction 0x{word:08x} at pc 0x{pc:08x}")
            entry = (instr, instr.klass, instr.sources(),
                     instr.destination(), instr.info.fmt is Format.I)
            self._decoded[pc] = entry
        return entry

    def block_at(self, start_pc: int) -> BasicBlock:
        """Return (registering if new) the dynamic basic block at ``start_pc``."""
        block = self.block_table.get_by_pc(start_pc)
        if block is not None:
            return block
        instrs = []
        pc = start_pc
        while True:
            instr, klass, _, _, _ = self.decode_at(pc)
            instrs.append(instr)
            if instr.info.is_control or klass is InstrClass.SYSCALL:
                break
            pc += 4
        return self.block_table.add(start_pc, tuple(instrs))

    # ------------------------------------------------------------------
    def step(self) -> StepOutcome:  # noqa: C901 - the interpreter core
        """Execute exactly one instruction."""
        timing = self.timing
        # adds, and HI/LO reads relative to this block's own cycles, are
        # exact with compiled blocks' counters still packed
        stats = self._stats
        regs = self.regs
        pc = self.pc
        instr, klass, sources, dest, imm_form = self.decode_at(pc)
        stats.instructions += 1
        stats.fetches += 1
        cycles = 1
        icache = self.caches.icache
        if icache is not None and not icache.access(pc):
            cycles += icache.config.miss_penalty
            stats.icache_misses += 1
        if self._last_load_dest is not None \
                and self._last_load_dest in sources:
            cycles += timing.load_use_stall
            stats.load_use_stalls += 1
        self._last_load_dest = None
        next_pc = pc + 4
        mnemonic = instr.mnemonic
        block_end = False
        taken = False

        if klass is InstrClass.ALU or klass is InstrClass.SHIFT \
                or klass is InstrClass.NOP:
            if dest is not None:
                b = instr.imm if imm_form else regs[instr.rt]
                regs[dest] = alu_result(instr, regs[instr.rs], b)
        elif klass is InstrClass.LOAD:
            stats.loads += 1
            address = (regs[instr.rs] + instr.imm) & 0xFFFFFFFF
            dcache = self.caches.dcache
            if dcache is not None and not dcache.access(address):
                cycles += dcache.config.miss_penalty
                stats.dcache_misses += 1
            value = _load(self.memory, mnemonic, address)
            if dest is not None:
                regs[dest] = value
                self._last_load_dest = dest
        elif klass is InstrClass.STORE:
            stats.stores += 1
            address = (regs[instr.rs] + instr.imm) & 0xFFFFFFFF
            dcache = self.caches.dcache
            if dcache is not None and not dcache.access(address):
                cycles += dcache.config.miss_penalty
                stats.dcache_misses += 1
            _store(self.memory, mnemonic, address, regs[instr.rt])
        elif klass is InstrClass.BRANCH:
            stats.branches += 1
            block_end = True
            taken = branch_taken(mnemonic, regs[instr.rs], regs[instr.rt])
            if taken:
                next_pc = instr.branch_target(pc)
                cycles += timing.branch_penalty
                stats.taken_transfers += 1
        elif klass is InstrClass.JUMP:
            stats.branches += 1
            stats.taken_transfers += 1
            cycles += timing.branch_penalty
            block_end = True
            taken = True
            if mnemonic == "jr":
                next_pc = regs[instr.rs]
            elif mnemonic == "jalr":
                if dest is not None:
                    regs[dest] = pc + 4
                next_pc = regs[instr.rs]
            else:
                if mnemonic == "jal":
                    regs[31] = pc + 4
                next_pc = instr.branch_target(pc)
        elif klass is InstrClass.MULT:
            self.hi, self.lo = mult_result(mnemonic, regs[instr.rs],
                                           regs[instr.rt])
            self._hilo_ready = stats.cycles + cycles + timing.mult_latency
        elif klass is InstrClass.DIV:
            self.hi, self.lo = div_result(mnemonic, regs[instr.rs],
                                          regs[instr.rt])
            self._hilo_ready = stats.cycles + cycles + timing.div_latency
        elif klass is InstrClass.HILO:
            if mnemonic == "mfhi" or mnemonic == "mflo":
                wait = self._hilo_ready - (stats.cycles + cycles)
                if wait > 0:
                    cycles += wait
                    stats.hilo_stalls += wait
                if dest is not None:
                    regs[dest] = self.hi if mnemonic == "mfhi" else self.lo
            elif mnemonic == "mthi":
                self.hi = regs[instr.rs]
            else:
                self.lo = regs[instr.rs]
        elif klass is InstrClass.SYSCALL:
            stats.syscalls += 1
            cycles += timing.syscall_cycles - 1
            block_end = True
            self.exit_code = handle_syscall(regs, self.memory,
                                            self.output_parts)
        else:  # pragma: no cover - classes are exhaustive
            raise SimulationError(f"unhandled class {klass}")

        stats.cycles += cycles
        if block_end:
            # The transfer bubble hides cross-block hazards: reset the
            # interlock trackers so block costs are statically computable.
            self._last_load_dest = None
            self._hilo_ready = 0
            if self.collect_trace:
                block = self.block_at(self._block_start)
                self._trace_events.append(block.block_id << 1 | taken)
            self._block_start = next_pc
        self.pc = next_pc
        if stats.instructions > self.max_instructions:
            raise SimulationError(
                f"instruction budget exceeded at pc 0x{pc:08x}")
        return StepOutcome(block_end, taken, self.exit_code is not None,
                           pc, next_pc)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute until the program exits."""
        telemetry = self.telemetry
        start = _perf_counter() if telemetry.enabled else 0.0
        engine = self._block_compiler
        if engine is not None:
            engine.run_to_exit()
            # the compiled blocks close over this simulator; dropping
            # them at exit leaves no cycle for the collector to find.
            self._block_compiler = None
        else:
            while self.exit_code is None:
                self.step()
        if telemetry.enabled:
            telemetry.add_time("sim.run_seconds",
                               _perf_counter() - start)
            telemetry.count("sim.runs")
            telemetry.count("sim.instructions", self.stats.instructions)
            telemetry.count("sim.cycles", self.stats.cycles)
        return self.result()

    def step_block(self) -> StepOutcome:
        """Execute through the end of the current basic block.

        Runs the compiled block when the block compiler is engaged;
        otherwise steps the interpreter.  Either way the returned outcome
        has ``block_end=True`` and identical architectural effects.
        """
        engine = self._block_compiler
        if engine is not None:
            return engine.run_block()
        while True:
            outcome = self.step()
            if outcome.block_end:
                return outcome

    def result(self) -> RunResult:
        trace = Trace(self.block_table, self._trace_events) \
            if self.collect_trace else None
        return RunResult(self.exit_code if self.exit_code is not None
                         else -1,
                         "".join(self.output_parts), self.stats, trace,
                         self.regs, self.memory)

    def reset_block_start(self, pc: int) -> None:
        """Used by the coupled simulator after array execution."""
        self._block_start = pc
        self._last_load_dest = None
        self._hilo_ready = 0


def _load(memory: Memory, mnemonic: str, address: int) -> int:
    if mnemonic == "lw":
        return memory.read_word(address)
    if mnemonic == "lbu":
        return memory.read_byte(address)
    if mnemonic == "lb":
        value = memory.read_byte(address)
        return (value - 0x100) & 0xFFFFFFFF if value & 0x80 else value
    if mnemonic == "lhu":
        return memory.read_half(address)
    if mnemonic == "lh":
        value = memory.read_half(address)
        return (value - 0x10000) & 0xFFFFFFFF if value & 0x8000 else value
    raise SimulationError(f"bad load {mnemonic}")


def _store(memory: Memory, mnemonic: str, address: int, value: int) -> None:
    if mnemonic == "sw":
        memory.write_word(address, value & 0xFFFFFFFF)
    elif mnemonic == "sb":
        memory.write_byte(address, value)
    elif mnemonic == "sh":
        memory.write_half(address, value)
    else:
        raise SimulationError(f"bad store {mnemonic}")


def run_program(program: Program, collect_trace: bool = False,
                timing: Optional[TimingModel] = None,
                max_instructions: int = 200_000_000,
                caches: Optional[CacheHierarchy] = None,
                fast: bool = True,
                telemetry=None) -> RunResult:
    """One-shot convenience: simulate ``program`` to completion."""
    sim = Simulator(program, timing=timing, collect_trace=collect_trace,
                    max_instructions=max_instructions, caches=caches,
                    fast=fast, telemetry=telemetry)
    return sim.run()
