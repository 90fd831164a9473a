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
- the block's static cycle/event cost (computed by the same
  :class:`~repro.system.costmodel.BlockCostModel` that powers the trace
  evaluator) is applied as one bulk update per block.

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
scope; every compiled store asserts that its target lies outside
``.text`` and raises :class:`~repro.sim.cpu.SimulationError` otherwise
(the interpreter would silently execute stale decodes instead).  Cache
timing is dynamic (miss patterns depend on addresses), so a simulator
with I/D caches configured keeps the per-instruction interpreter.

Compiled factories are cached on the :class:`~repro.asm.program.Program`
itself, keyed by ``(pc, collect_trace, timing, max_instructions)`` for
blocks and ``("prefix", pc, covered)`` for array prefixes, so repeated
simulations of one program (the Table 2 sweep, differential
tests) skip code generation entirely and only re-bind the closures to
the new simulator's register file, memory and counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, InstrClass
from repro.isa.semantics import div_result, mult_result
from repro.sim.memory import PAGE_MASK, PAGE_SHIFT
from repro.sim.syscalls import handle_syscall
from repro.sim.trace import BasicBlock

#: Safety bound: a decoded block longer than this means execution ran off
#: the program text into zeroed memory (the interpreter would burn its
#: instruction budget one nop at a time instead).
MAX_BLOCK_LEN = 65_536

_MASK = 0xFFFFFFFF

#: a compiled block: zero-argument closure returning (taken, next_pc).
CompiledBlock = Callable[[], Tuple[bool, int]]

#: a compiled array prefix: zero-argument closure, run for its effects.
CompiledPrefix = Callable[[], None]

# An aligned word at address ``_a`` through its page's word view; with no
# view (unmapped page, big-endian host) or a misaligned address the
# generated code calls ``rw``/``ww`` instead.
_VIEW_LOOKUP = f"_w = words.get(_a >> {PAGE_SHIFT})"
_VIEW_MISS = "_w is None or _a & 3"
_VIEW_WORD = f"_w[(_a & {PAGE_MASK}) >> 2]"


def _sgn(var: str) -> str:
    """Expression re-interpreting canonical-u32 variable ``var`` as signed."""
    return f"({var} - 0x100000000 if {var} & 0x80000000 else {var})"


def _emit_body(instr: Instruction, lines: List[str],
               text_base: int, text_end: int) -> None:
    """Emit straight-line statements for one non-terminator instruction."""
    klass = instr.klass
    m = instr.mnemonic
    rs = f"regs[{instr.rs}]"
    if klass is InstrClass.NOP:
        return
    if klass is InstrClass.ALU or klass is InstrClass.SHIFT:
        dest = instr.destination()
        if dest is None:
            return
        d = f"regs[{dest}]"
        imm_form = instr.info.fmt is Format.I
        b = repr(instr.imm) if imm_form else f"regs[{instr.rt}]"
        if m in ("add", "addu", "addi", "addiu"):
            lines.append(f"{d} = ({rs} + {b}) & 0xFFFFFFFF")
        elif m in ("sub", "subu"):
            lines.append(f"{d} = ({rs} - {b}) & 0xFFFFFFFF")
        elif m in ("and", "andi"):
            lines.append(f"{d} = {rs} & {b}")
        elif m in ("or", "ori"):
            lines.append(f"{d} = {rs} | {b}")
        elif m in ("xor", "xori"):
            lines.append(f"{d} = {rs} ^ {b}")
        elif m == "nor":
            lines.append(f"{d} = ~({rs} | {b}) & 0xFFFFFFFF")
        elif m in ("slt", "slti"):
            lines.append(f"_a = {rs}")
            if imm_form:
                lines.append(f"{d} = 1 if {_sgn('_a')} < {instr.imm} else 0")
            else:
                lines.append(f"_b = {b}")
                lines.append(
                    f"{d} = 1 if {_sgn('_a')} < {_sgn('_b')} else 0")
        elif m in ("sltu", "sltiu"):
            b_u = repr(instr.imm & _MASK) if imm_form else b
            lines.append(f"{d} = 1 if {rs} < {b_u} else 0")
        elif m == "lui":
            lines.append(f"{d} = {(instr.imm << 16) & _MASK}")
        elif m == "sll":
            lines.append(f"{d} = ({b} << {instr.shamt}) & 0xFFFFFFFF")
        elif m == "srl":
            lines.append(f"{d} = {b} >> {instr.shamt}")
        elif m == "sra":
            lines.append(f"_b = {b}")
            lines.append(
                f"{d} = ({_sgn('_b')} >> {instr.shamt}) & 0xFFFFFFFF")
        elif m == "sllv":
            lines.append(f"{d} = ({b} << ({rs} & 31)) & 0xFFFFFFFF")
        elif m == "srlv":
            lines.append(f"{d} = {b} >> ({rs} & 31)")
        elif m == "srav":
            lines.append(f"_b = {b}")
            lines.append(
                f"{d} = ({_sgn('_b')} >> ({rs} & 31)) & 0xFFFFFFFF")
        else:  # pragma: no cover - ALU/SHIFT mnemonics are exhaustive
            raise ValueError(f"cannot compile {m}")
    elif klass is InstrClass.LOAD:
        lines.append(f"_a = ({rs} + {instr.imm}) & 0xFFFFFFFF")
        dest = instr.destination()
        if m == "lw":
            lines.append(_VIEW_LOOKUP)
            expr = f"rw(_a) if {_VIEW_MISS} else {_VIEW_WORD}"
        elif m == "lbu":
            expr = "rb(_a)"
        elif m == "lhu":
            expr = "rh(_a)"
        elif m == "lb":
            lines.append("_v = rb(_a)")
            expr = "(_v - 0x100) & 0xFFFFFFFF if _v & 0x80 else _v"
        else:  # lh
            lines.append("_v = rh(_a)")
            expr = "(_v - 0x10000) & 0xFFFFFFFF if _v & 0x8000 else _v"
        if dest is not None:
            lines.append(f"regs[{dest}] = {expr}")
        elif m in ("lw", "lbu", "lhu"):
            lines.append(expr)  # keep the access (alignment checks)
    elif klass is InstrClass.STORE:
        lines.append(f"_a = ({rs} + {instr.imm}) & 0xFFFFFFFF")
        lines.append(f"if {text_base} <= _a < {text_end}:")
        lines.append(
            "    raise SimulationError('store to .text at 0x%08x: "
            "self-modifying code is unsupported by the fast path' % _a)")
        if m == "sw":
            lines.append(_VIEW_LOOKUP)
            lines.append(f"if {_VIEW_MISS}:")
            lines.append(f"    ww(_a, regs[{instr.rt}])")
            lines.append("else:")
            lines.append(f"    {_VIEW_WORD} = regs[{instr.rt}]")
        elif m == "sb":
            lines.append(f"wb(_a, regs[{instr.rt}])")
        else:  # sh
            lines.append(f"wh(_a, regs[{instr.rt}])")
    elif klass is InstrClass.MULT:
        lines.append(f"sim.hi, sim.lo = mult_result('{m}', {rs}, "
                     f"regs[{instr.rt}])")
    elif klass is InstrClass.DIV:
        lines.append(f"sim.hi, sim.lo = div_result('{m}', {rs}, "
                     f"regs[{instr.rt}])")
    elif klass is InstrClass.HILO:
        if m in ("mfhi", "mflo"):
            dest = instr.destination()
            if dest is not None:
                src = "hi" if m == "mfhi" else "lo"
                lines.append(f"regs[{dest}] = sim.{src}")
        elif m == "mthi":
            lines.append(f"sim.hi = {rs}")
        else:  # mtlo
            lines.append(f"sim.lo = {rs}")
    else:  # pragma: no cover - terminators are emitted separately
        raise ValueError(f"cannot compile {m} mid-block")


def _emit_terminator(instr: Instruction, pc: int,
                     lines: List[str]) -> str:
    """Emit the block terminator; returns the ``taken`` expression."""
    klass = instr.klass
    m = instr.mnemonic
    if klass is InstrClass.BRANCH:
        taken_target = instr.branch_target(pc)
        fallthrough = pc + 4
        lines.append(f"_b = regs[{instr.rs}]")
        if m == "beq":
            lines.append(f"taken = _b == regs[{instr.rt}]")
        elif m == "bne":
            lines.append(f"taken = _b != regs[{instr.rt}]")
        elif m == "blez":
            lines.append("taken = _b == 0 or _b >= 0x80000000")
        elif m == "bgtz":
            lines.append("taken = _b != 0 and _b < 0x80000000")
        elif m == "bltz":
            lines.append("taken = _b >= 0x80000000")
        else:  # bgez
            lines.append("taken = _b < 0x80000000")
        lines.append(
            f"next_pc = {taken_target} if taken else {fallthrough}")
        return "taken"
    if klass is InstrClass.JUMP:
        if m == "jr":
            lines.append(f"next_pc = regs[{instr.rs}]")
        elif m == "jalr":
            dest = instr.destination()
            if dest is not None:
                lines.append(f"regs[{dest}] = {pc + 4}")
            lines.append(f"next_pc = regs[{instr.rs}]")
        else:  # j / jal
            if m == "jal":
                lines.append(f"regs[31] = {pc + 4}")
            lines.append(f"next_pc = {instr.branch_target(pc)}")
        return "True"
    # SYSCALL-class terminator (syscall or break): may end the run.
    lines.append("sim.exit_code = handle_syscall(regs, memory, out)")
    lines.append(f"next_pc = {pc + 4}")
    return "False"


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
        self._flags = (sim.collect_trace, sim.timing, sim.max_instructions)

    # ------------------------------------------------------------------
    def run_to_exit(self) -> None:
        """Drive the simulator to program exit, one block at a time."""
        sim = self.sim
        compiled = self._compiled
        compile_block = self.compile_block
        pc = sim.pc
        while sim.exit_code is None:
            fn = compiled.get(pc)
            if fn is None:
                fn = compile_block(pc)
            _, pc = fn()

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
        return StepOutcome(True, taken, sim.exit_code is not None,
                           self._term_pc[pc], next_pc)

    def prefix(self, block: BasicBlock, covered: int) -> CompiledPrefix:
        """The compiled array prefix: ``block``'s first ``covered``
        instructions, with the loads/stores counts the coupled
        simulator's per-instruction path would add."""
        key = (block.start_pc, covered)
        fn = self._prefixes.get(key)
        if fn is None:
            # the leading string keeps these apart from block keys
            factory_key = ("prefix", *key)
            factory = self._factories.get(factory_key)
            if factory is None:
                factory = self._build_prefix(block, covered)
                self._factories[factory_key] = factory
            fn = self._prefixes[key] = self._bind(factory, -1)
        return fn

    # ------------------------------------------------------------------
    def compile_block(self, pc: int) -> CompiledBlock:
        """Specialize (with program-level caching) the block at ``pc``."""
        key = (pc, *self._flags)
        cached = self._factories.get(key)
        if cached is None:
            cached = self._build_factory(pc)
            self._factories[key] = cached
            if self.sim.telemetry.enabled:
                self.sim.telemetry.count("fastpath.blocks_compiled")
        factory, length = cached
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

    def _bind(self, factory, code: int):
        """Close a generated factory over this simulator's state."""
        sim = self.sim
        memory = sim.memory
        return factory(sim, sim.regs, sim.stats, memory,
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

    def _build_prefix(self, block: BasicBlock, covered: int):
        program = self.sim.program
        instrs = block.instructions[:covered]
        body: List[str] = []
        for instr in instrs:
            _emit_body(instr, body, program.text_base, program.text_end)
        for attr, klass in (("loads", InstrClass.LOAD),
                            ("stores", InstrClass.STORE)):
            count = sum(1 for instr in instrs if instr.klass is klass)
            if count:
                body.append(f"stats.{attr} += {count}")
        return _compile(_wrap(body or ["pass"]),
                        f"<fastprefix 0x{block.start_pc:08x}+{covered}>")

    def _render_source(self, instrs: List[Instruction], start_pc: int,
                       cost) -> str:
        sim = self.sim
        program = sim.program
        collect_trace, _, max_instructions = self._flags
        body: List[str] = []
        pc = start_pc
        for instr in instrs[:-1]:
            _emit_body(instr, body, program.text_base, program.text_end)
            pc += 4
        taken_expr = _emit_terminator(instrs[-1], pc, body)

        n = cost.instructions
        body.append(f"stats.instructions += {n}")
        body.append(f"stats.fetches += {n}")
        for attr, value in (("loads", cost.loads),
                            ("stores", cost.stores),
                            ("branches", cost.branches),
                            ("load_use_stalls", cost.load_use_stalls),
                            ("hilo_stalls", cost.hilo_stalls),
                            ("syscalls", cost.syscalls)):
            if value:
                body.append(f"stats.{attr} += {value}")
        if taken_expr == "taken":  # conditional branch terminator
            body.append("if taken:")
            body.append(f"    stats.cycles += {cost.cycles_taken}")
            body.append("    stats.taken_transfers += 1")
            body.append("else:")
            body.append(f"    stats.cycles += {cost.cycles_not_taken}")
        elif taken_expr == "True":  # unconditional jump terminator
            body.append(f"stats.cycles += {cost.cycles_taken}")
            body.append("stats.taken_transfers += 1")
        else:  # syscall terminator
            body.append(f"stats.cycles += {cost.cycles_not_taken}")
        body.append("sim._block_start = next_pc")
        body.append("sim.pc = next_pc")
        if collect_trace:
            body.append(f"append(code | {taken_expr})")
        body.append(f"if stats.instructions > {max_instructions}:")
        body.append("    raise SimulationError("
                    f"'instruction budget exceeded at pc 0x{start_pc:08x}')")
        body.append(f"return {taken_expr}, next_pc")
        return _wrap(body)


def _wrap(body: List[str]) -> str:
    """Source of a factory binding the closure with ``body`` to a
    simulator (see :meth:`FastPath._bind`)."""
    inner = "\n".join(f"        {line}" for line in body)
    return (
        "def _factory(sim, regs, stats, memory, rb, rh, rw, wb, wh, "
        "ww, words, out, append, code):\n"
        "    def _block():\n"
        f"{inner}\n"
        "    return _block\n"
    )


def _compile(source: str, name: str):
    """Exec generated factory ``source``; returns its ``_factory``."""
    from repro.sim.cpu import SimulationError

    namespace = {
        "mult_result": mult_result,
        "div_result": div_result,
        "handle_syscall": handle_syscall,
        "SimulationError": SimulationError,
    }
    exec(compile(source, name, "exec"), namespace)
    return namespace["_factory"]
