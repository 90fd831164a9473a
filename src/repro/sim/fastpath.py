"""Block-compiled fast execution engine.

The per-instruction interpreter in :mod:`repro.sim.cpu` pays full decode
dispatch, operand extraction and hazard tracking on every instruction.
But (see DESIGN.md §5) a basic block's cost is a *static* property: the
interlock trackers reset at every control transfer, so the cycles of a
block depend only on the block body and the terminator outcome.  This
module exploits that fact by specializing each basic block, on first
visit, into a single generated Python function:

- operands, immediates and branch targets are folded into the source as
  literals (decode happens exactly once, through the program-wide decode
  cache);
- instruction-class dispatch disappears — each instruction becomes one
  or two straight-line statements with the exact semantics of
  :mod:`repro.isa.semantics`;
- what the block can compute at compile time is folded: ``$zero``
  reads as ``0``, a register holding a known constant (``li``,
  ``lui``/``ori``, ``la``) reads as that literal, and so do the
  effective addresses built from it;
- the block's static cycle/event cost (computed by the same
  :class:`~repro.system.costmodel.BlockCostModel` that powers the trace
  evaluator) is applied once per block: the instruction count directly
  (the driver checks the budget against it), every other counter
  through one add of a packed integer
  (:func:`~repro.sim.stats.pack_counts`) that ``Simulator.stats``
  folds into the :class:`~repro.sim.stats.RunStats` whenever anyone
  reads them, so the counters are exact at every read.

Steady-state execution therefore dispatches once per *block* instead of
once per *instruction*, while producing bit-identical architectural
state, statistics and trace events — asserted by
``tests/test_fastpath.py`` over the full workload suite.

The same code generator compiles the array side of the coupled
MIPS+DIM system: :meth:`FastPath.prefix` turns the first ``covered``
instructions of a block — what one array configuration executes of it —
into a closure that also bulk-adds the prefix's static load/store
counts.  Aligned ``lw``/``sw`` in every generated closure go straight
to the page's word view (:attr:`~repro.sim.memory.Memory.words`); an
unmapped page, a misaligned address or a big-endian host (no views)
falls back to ``read_word``/``write_word``, which allocate, raise the
alignment error and byte-swap exactly as before.

Scope and invalidation rule: the generated code and the decode cache
assume the text segment is immutable.  Self-modifying code is out of
scope; every compiled store checks, in one line, that its target lies
outside ``.text`` and raises :class:`~repro.sim.cpu.SimulationError`
otherwise (the interpreter would silently execute stale decodes
instead).  Cache timing is dynamic (miss patterns depend on
addresses), so a simulator with I/D caches configured keeps the
per-instruction interpreter.

Compiled factories are cached on the :class:`~repro.asm.program.Program`
itself, keyed by ``(pc, collect_trace, timing)`` for blocks and
``("prefix", pc, covered)`` for array prefixes, so repeated
simulations of one program (the Table 2 sweep, differential
tests) skip code generation entirely and only re-bind the closures to
the new simulator's register file, memory and counters.
"""

from __future__ import annotations

from types import CodeType, FunctionType
from typing import Callable, Dict, List, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, InstrClass
from repro.isa.semantics import (alu_result, div_result, mult_result,
                                 to_signed)
from repro.sim.memory import PAGE_MASK, PAGE_SHIFT
from repro.sim.stats import pack_counts
from repro.sim.syscalls import handle_syscall
from repro.sim.trace import BasicBlock

#: Safety bound: a decoded block longer than this means execution ran off
#: the program text into zeroed memory (the interpreter would burn its
#: instruction budget one nop at a time instead).
MAX_BLOCK_LEN = 65_536

_MASK = 0xFFFFFFFF

#: a compiled block: zero-argument closure returning (taken, next_pc).
CompiledBlock = Callable[[], Tuple[bool, int]]

#: a compiled array prefix: closure called with ``True``, run for its
#: effects (a block closure run as its own whole-body prefix).
CompiledPrefix = Callable[[bool], None]

# An aligned word at address ``_a`` through its page's word view; with no
# view (unmapped page, big-endian host) or a misaligned address the
# generated code calls ``rw``/``ww`` instead.
_VIEW_LOOKUP = f"_w = words.get(_a >> {PAGE_SHIFT})"
_VIEW_MISS = "_w is None or _a & 3"
_VIEW_WORD = f"_w[(_a & {PAGE_MASK}) >> 2]"


def _sgn(var: str) -> str:
    """Expression re-interpreting canonical-u32 variable ``var`` as signed."""
    return f"({var} - 0x100000000 if {var} & 0x80000000 else {var})"


def _text_store_error(address: int) -> Exception:
    """The error every compiled store's one-line ``.text`` check raises
    (in the compiled frame, so a traceback ends at the store)."""
    from repro.sim.cpu import SimulationError

    return SimulationError(
        f"store to .text at 0x{address:08x}: self-modifying code is "
        "unsupported by the fast path")


class _Emitter:
    """The source lines of one block or array prefix, instruction by
    instruction.

    Register reads the block can already compute are folded: ``$zero``
    reads as ``0``, and a register last written with a constant (``li``,
    ``lui``/``ori``, ``addiu $r, $zero, k``, ...) reads as that literal
    until the block writes it again.  A constant write that the very
    next instruction overwrites with another constant is dropped (the
    ``lui`` half of a ``lui``/``ori`` pair): nothing in between could
    observe it.  Every other register write is emitted as before, so the
    architectural state at any exit or exception is unchanged.
    """

    def __init__(self, lines: List[str], text_base: int,
                 text_end: int) -> None:
        self.lines = lines
        self.text_base = text_base
        self.text_end = text_end
        #: registers holding a value known at compile time
        self.known: Dict[int, int] = {0: 0}
        #: the register the last emitted line set to a constant, if that
        #: line was the whole of its instruction
        self._const_reg = -1

    def value(self, reg: int) -> str:
        """Source reading register ``reg``."""
        known = self.known.get(reg)
        return f"regs[{reg}]" if known is None else str(known)

    def emit(self, line: str) -> None:
        self.lines.append(line)
        self._const_reg = -1

    def write(self, dest: int, expr: str) -> None:
        """``regs[dest] = expr`` for a value unknown at compile time."""
        self.emit(f"regs[{dest}] = {expr}")
        self.known.pop(dest, None)

    def constant(self, dest: int, value: int) -> None:
        """``regs[dest] = value`` for a value known at compile time."""
        line = f"regs[{dest}] = {value}"
        if self._const_reg == dest:
            self.lines[-1] = line
        else:
            self.lines.append(line)
        self._const_reg = dest
        self.known[dest] = value

    def address(self, instr: Instruction) -> None:
        """``_a = `` the effective address of a load or store."""
        base = self.known.get(instr.rs)
        if base is not None:
            self.emit(f"_a = {(base + instr.imm) & _MASK}")
        elif instr.imm:
            self.emit(f"_a = (regs[{instr.rs}] + {instr.imm}) & 0xFFFFFFFF")
        else:
            self.emit(f"_a = regs[{instr.rs}]")

    def body(self, instr: Instruction) -> None:
        """Emit one non-terminator instruction."""
        klass = instr.klass
        m = instr.mnemonic
        if klass is InstrClass.NOP:
            return
        if klass is InstrClass.ALU or klass is InstrClass.SHIFT:
            self._alu(instr)
        elif klass is InstrClass.LOAD:
            self.address(instr)
            dest = instr.destination()
            if m == "lw":
                self.emit(_VIEW_LOOKUP)
                expr = f"rw(_a) if {_VIEW_MISS} else {_VIEW_WORD}"
            elif m == "lbu":
                expr = "rb(_a)"
            elif m == "lhu":
                expr = "rh(_a)"
            elif m == "lb":
                self.emit("_v = rb(_a)")
                expr = "(_v - 0x100) & 0xFFFFFFFF if _v & 0x80 else _v"
            else:  # lh
                self.emit("_v = rh(_a)")
                expr = ("(_v - 0x10000) & 0xFFFFFFFF if _v & 0x8000 "
                        "else _v")
            if dest is not None:
                self.write(dest, expr)
            elif m in ("lw", "lbu", "lhu"):
                self.emit(expr)  # keep the access (alignment checks)
        elif klass is InstrClass.STORE:
            self.address(instr)
            self.emit(f"if {self.text_base} <= _a < {self.text_end}: "
                      "raise text_store(_a)")
            value = self.value(instr.rt)
            if m == "sw":
                self.emit(_VIEW_LOOKUP)
                self.emit(f"if {_VIEW_MISS}:")
                self.emit(f"    ww(_a, {value})")
                self.emit("else:")
                self.emit(f"    {_VIEW_WORD} = {value}")
            elif m == "sb":
                self.emit(f"wb(_a, {value})")
            else:  # sh
                self.emit(f"wh(_a, {value})")
        elif klass is InstrClass.MULT or klass is InstrClass.DIV:
            call = "mult_result" if klass is InstrClass.MULT \
                else "div_result"
            self.emit(f"sim.hi, sim.lo = {call}('{m}', "
                      f"{self.value(instr.rs)}, {self.value(instr.rt)})")
        elif klass is InstrClass.HILO:
            if m in ("mfhi", "mflo"):
                dest = instr.destination()
                if dest is not None:
                    self.write(dest, "sim.hi" if m == "mfhi" else "sim.lo")
            elif m == "mthi":
                self.emit(f"sim.hi = {self.value(instr.rs)}")
            else:  # mtlo
                self.emit(f"sim.lo = {self.value(instr.rs)}")
        else:  # pragma: no cover - terminators are emitted separately
            raise ValueError(f"cannot compile {m} mid-block")

    def _alu(self, instr: Instruction) -> None:
        dest = instr.destination()
        if dest is None:
            return
        m = instr.mnemonic
        imm_form = instr.info.fmt is Format.I
        known_a = self.known.get(instr.rs)
        known_b = instr.imm if imm_form else self.known.get(instr.rt)
        if known_a is not None and known_b is not None:
            self.constant(dest, alu_result(instr, known_a, known_b))
            return
        rs = self.value(instr.rs)
        b = repr(instr.imm) if imm_form else self.value(instr.rt)
        if m in ("add", "addu", "addi", "addiu", "sub", "subu", "or",
                 "ori", "xor", "xori") and known_b == 0:
            self.write(dest, rs)  # x + 0, x - 0, x | 0, x ^ 0: x itself
        elif m in ("add", "addu", "or", "xor") and known_a == 0:
            self.write(dest, b)
        elif m in ("add", "addu", "addi", "addiu"):
            self.write(dest, f"({rs} + {b}) & 0xFFFFFFFF")
        elif m in ("sub", "subu"):
            self.write(dest, f"({rs} - {b}) & 0xFFFFFFFF")
        elif m in ("and", "andi"):
            self.write(dest, f"{rs} & {b}")
        elif m in ("or", "ori"):
            self.write(dest, f"{rs} | {b}")
        elif m in ("xor", "xori"):
            self.write(dest, f"{rs} ^ {b}")
        elif m == "nor":
            self.write(dest, f"~({rs} | {b}) & 0xFFFFFFFF")
        elif m in ("slt", "slti"):
            left = self._signed(instr.rs, "_a")
            right = str(instr.imm) if imm_form \
                else self._signed(instr.rt, "_b")
            self.write(dest, f"1 if {left} < {right} else 0")
        elif m in ("sltu", "sltiu"):
            b_u = repr(instr.imm & _MASK) if imm_form else b
            self.write(dest, f"1 if {rs} < {b_u} else 0")
        elif m == "sll":
            self.write(dest, f"({b} << {instr.shamt}) & 0xFFFFFFFF")
        elif m == "srl":
            self.write(dest, f"{b} >> {instr.shamt}")
        elif m == "sra":
            self.emit(f"_b = {b}")
            self.write(dest,
                       f"({_sgn('_b')} >> {instr.shamt}) & 0xFFFFFFFF")
        elif m == "sllv":
            self.write(dest, f"({b} << ({rs} & 31)) & 0xFFFFFFFF")
        elif m == "srlv":
            self.write(dest, f"{b} >> ({rs} & 31)")
        elif m == "srav":
            self.emit(f"_b = {b}")
            self.write(dest,
                       f"({_sgn('_b')} >> ({rs} & 31)) & 0xFFFFFFFF")
        else:  # pragma: no cover - ALU/SHIFT mnemonics are exhaustive
            raise ValueError(f"cannot compile {m}")

    def _signed(self, reg: int, var: str) -> str:
        """Source reading register ``reg`` as a signed value (through
        ``var`` when the value is not known)."""
        known = self.known.get(reg)
        if known is not None:
            return str(to_signed(known))
        self.emit(f"{var} = regs[{reg}]")
        return _sgn(var)

    def terminator(self, instr: Instruction, pc: int) -> Tuple[str, str]:
        """Emit the block terminator; returns the ``taken`` and next-pc
        expressions of the block's ``return``."""
        klass = instr.klass
        m = instr.mnemonic
        if klass is InstrClass.BRANCH:
            rs = self.value(instr.rs)
            if m == "beq":
                self.emit(f"taken = {rs} == {self.value(instr.rt)}")
            elif m == "bne":
                self.emit(f"taken = {rs} != {self.value(instr.rt)}")
            elif m == "blez":
                self.emit(f"_b = {rs}")
                self.emit("taken = _b == 0 or _b >= 0x80000000")
            elif m == "bgtz":
                self.emit(f"_b = {rs}")
                self.emit("taken = _b != 0 and _b < 0x80000000")
            elif m == "bltz":
                self.emit(f"taken = {rs} >= 0x80000000")
            else:  # bgez
                self.emit(f"taken = {rs} < 0x80000000")
            return "taken", (f"({instr.branch_target(pc)} if taken "
                             f"else {pc + 4})")
        if klass is InstrClass.JUMP:
            if m == "jr" or m == "jalr":
                dest = instr.destination()
                if m == "jalr" and dest is not None:
                    # the link is written before the target is read
                    self.constant(dest, pc + 4)
                return "True", self.value(instr.rs)
            if m == "jal":
                self.constant(31, pc + 4)
            return "True", str(instr.branch_target(pc))
        # SYSCALL-class terminator (syscall or break): may end the run.
        self.emit("sim.exit_code = handle_syscall(regs, memory, out)")
        return "False", str(pc + 4)


class FastPath:
    """Per-simulator block compiler and execution driver."""

    def __init__(self, sim) -> None:
        # Deferred import: repro.system imports repro.sim at package
        # initialisation; by the time a Simulator exists both are ready.
        from repro.system.costmodel import shared_cost_model

        self.sim = sim
        self._model = shared_cost_model(sim.timing)
        self._compiled: Dict[int, CompiledBlock] = {}
        self._term_pc: Dict[int, int] = {}
        self._prefixes: Dict[Tuple[int, int], CompiledPrefix] = {}
        self._factories = sim.program.fastpath_cache
        self._flags = (sim.collect_trace, sim.timing)

    # ------------------------------------------------------------------
    def run_to_exit(self) -> None:
        """Drive the simulator to program exit, one block at a time.

        The driver, not the block, keeps ``sim.pc`` and checks the
        instruction budget: ``sim.pc`` is written when the run ends or
        raises (the block that raised, or the one after the block that
        overran the budget, as before).
        """
        sim = self.sim
        stats = sim._stats
        limit = sim.max_instructions
        compiled = self._compiled
        compile_block = self.compile_block
        pc = sim.pc
        try:
            while sim.exit_code is None:
                fn = compiled.get(pc)
                if fn is None:
                    fn = compile_block(pc)
                start = pc
                _, pc = fn()
                if stats.instructions > limit:
                    _over_budget(start)
        finally:
            sim.pc = sim._block_start = pc

    def run_block(self):
        """Execute the current basic block; returns a StepOutcome.

        Mirrors stepping the interpreter until ``block_end`` — this is
        what the coupled simulator calls between array executions (the
        entry pc may be mid-block after a partially covered block; the
        suffix simply compiles as its own block).
        """
        from repro.sim.cpu import StepOutcome

        sim = self.sim
        pc = sim.pc
        fn = self._compiled.get(pc)
        if fn is None:
            fn = self.compile_block(pc)
        taken, next_pc = fn()
        sim.pc = sim._block_start = next_pc
        if sim._stats.instructions > sim.max_instructions:
            _over_budget(pc)
        return StepOutcome(True, taken, sim.exit_code is not None,
                           self._term_pc[pc], next_pc)

    def prefix(self, block: BasicBlock, covered: int) -> CompiledPrefix:
        """The compiled array prefix: ``block``'s first ``covered``
        instructions, with the loads/stores counts the coupled
        simulator's per-instruction path would add.  Call it with
        ``True``.

        An array usually covers a whole block but its terminator; a
        simulator that does not trace then reuses the block's own
        factory, whose closure stops after the body when called with
        ``True``.  Any other prefix compiles on its own."""
        key = (block.start_pc, covered)
        fn = self._prefixes.get(key)
        if fn is None:
            # the leading string keeps these apart from block keys
            factory_key = ("prefix", *key)
            factory = self._factories.get(factory_key)
            if factory is None:
                name = f"<fastprefix 0x{block.start_pc:08x}+{covered}>"
                if covered == len(block.instructions) - 1 \
                        and not self._flags[0]:
                    factory = _renamed(
                        self._block_factory(block.start_pc)[0], name)
                else:
                    factory = self._build_prefix(block, covered, name)
                self._factories[factory_key] = factory
            fn = self._prefixes[key] = self._bind(factory, -1)
        return fn

    # ------------------------------------------------------------------
    def compile_block(self, pc: int) -> CompiledBlock:
        """Specialize (with program-level caching) the block at ``pc``."""
        factory, length = self._block_factory(pc)
        sim = self.sim
        # Registering the block at first entry matches the interpreter's
        # registration at first completion (nothing runs in between), so
        # trace block ids agree between the two paths.  The block appends
        # ``code | taken``, so it gets the id pre-shifted.
        code = sim.block_at(pc).block_id << 1 if sim.collect_trace else -1
        fn = self._bind(factory, code)
        self._compiled[pc] = fn
        self._term_pc[pc] = pc + 4 * (length - 1)
        return fn

    def _block_factory(self, pc: int):
        """The (factory, length) of the block at ``pc``, built once per
        program and flags."""
        key = (pc, *self._flags)
        cached = self._factories.get(key)
        if cached is None:
            cached = self._build_factory(pc)
            self._factories[key] = cached
            if self.sim.telemetry.enabled:
                self.sim.telemetry.count("fastpath.blocks_compiled")
        return cached

    def _bind(self, factory, code: int):
        """Close a generated factory over this simulator's state."""
        sim = self.sim
        memory = sim.memory
        return factory(sim, sim.regs, sim._stats, sim._pending, memory,
                       memory.read_byte, memory.read_half, memory.read_word,
                       memory.write_byte, memory.write_half,
                       memory.write_word, memory.words, sim.output_parts,
                       sim._trace_events.append, code)

    def _build_factory(self, start_pc: int):
        sim = self.sim
        instrs: List[Instruction] = []
        pc = start_pc
        while True:
            instr, klass, _, _, _ = sim.decode_at(pc)
            instrs.append(instr)
            if instr.info.is_control or klass is InstrClass.SYSCALL:
                break
            if len(instrs) > MAX_BLOCK_LEN:
                from repro.sim.cpu import SimulationError
                raise SimulationError(
                    f"runaway block at pc 0x{start_pc:08x} "
                    f"(no terminator within {MAX_BLOCK_LEN} instructions)")
            pc += 4
        block = BasicBlock(-1, start_pc, tuple(instrs))
        cost = self._model.cost(block)
        source = self._render_source(instrs, start_pc, cost)
        return _compile(source, f"<fastblock 0x{start_pc:08x}>"), \
            len(instrs)

    def _build_prefix(self, block: BasicBlock, covered: int, name: str):
        program = self.sim.program
        instrs = block.instructions[:covered]
        body: List[str] = []
        emitter = _Emitter(body, program.text_base, program.text_end)
        for instr in instrs:
            emitter.body(instr)
        body.extend(_memory_counts(instrs))
        return _compile(_wrap(body or ["pass"]), name)

    def _render_source(self, instrs: List[Instruction], start_pc: int,
                       cost) -> str:
        """A block's source: its body, its terminator, then one update
        of the instruction count, one packed add of every other static
        counter (:data:`~repro.sim.stats.PACKED_FIELDS`) and the trace
        event."""
        program = self.sim.program
        collect_trace = self._flags[0]
        body: List[str] = []
        emitter = _Emitter(body, program.text_base, program.text_end)
        for instr in instrs[:-1]:
            emitter.body(instr)
        if not collect_trace:  # the whole-body array prefix stops here
            emitter.emit("if body_only:")
            for line in _memory_counts(instrs[:-1]) + ["return"]:
                emitter.emit(f"    {line}")
        pc = start_pc + 4 * (len(instrs) - 1)
        taken, next_pc = emitter.terminator(instrs[-1], pc)

        n = cost.instructions
        static = {"fetches": n, "loads": cost.loads, "stores": cost.stores,
                  "branches": cost.branches,
                  "load_use_stalls": cost.load_use_stalls,
                  "hilo_stalls": cost.hilo_stalls,
                  "syscalls": cost.syscalls}
        on_taken = pack_counts({**static, "cycles": cost.cycles_taken,
                                "taken_transfers": 1})
        on_fallthrough = pack_counts(
            {**static, "cycles": cost.cycles_not_taken})
        if taken == "taken":  # conditional branch terminator
            bump = f"{on_taken:#x} if taken else {on_fallthrough:#x}"
        elif taken == "True":  # unconditional jump terminator
            bump = f"{on_taken:#x}"
        else:  # syscall terminator
            bump = f"{on_fallthrough:#x}"
        body.append(f"stats.instructions += {n}")
        body.append(f"pend[0] += {bump}")
        if collect_trace:
            body.append(f"append(code | {taken})")
        body.append(f"return {taken}, {next_pc}")
        return _wrap(body)


def _memory_counts(instrs) -> List[str]:
    """The line adding the loads and stores of ``instrs`` (an array
    prefix's only counters), if it has any."""
    counts = {
        "loads": sum(1 for i in instrs if i.klass is InstrClass.LOAD),
        "stores": sum(1 for i in instrs if i.klass is InstrClass.STORE)}
    if not any(counts.values()):
        return []
    return [f"pend[0] += {pack_counts(counts):#x}"]


def _over_budget(pc: int) -> None:
    from repro.sim.cpu import SimulationError

    raise SimulationError(f"instruction budget exceeded at pc 0x{pc:08x}")


def _wrap(body: List[str]) -> str:
    """Source of a factory binding the closure with ``body`` to a
    simulator (see :meth:`FastPath._bind`)."""
    inner = "\n".join(f"        {line}" for line in body)
    return (
        "def _factory(sim, regs, stats, pend, memory, rb, rh, rw, wb, wh, "
        "ww, words, out, append, code):\n"
        "    def _block(body_only=False):\n"
        f"{inner}\n"
        "    return _block\n"
    )


def _renamed(factory, name: str):
    """``factory`` with its code filed under ``name``, without compiling
    again: a block run as an array prefix shows as one in tracebacks."""
    code = factory.__code__
    consts = tuple(const.replace(co_filename=name)
                   if isinstance(const, CodeType) else const
                   for const in code.co_consts)
    return FunctionType(code.replace(co_filename=name, co_consts=consts),
                        factory.__globals__)


def _compile(source: str, name: str):
    """Exec generated factory ``source``; returns its ``_factory``."""
    namespace = {
        "mult_result": mult_result,
        "div_result": div_result,
        "handle_syscall": handle_syscall,
        "text_store": _text_store_error,
    }
    exec(compile(source, name, "exec"), namespace)
    return namespace["_factory"]
