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

Aligned ``lw``/``sw`` in every generated block go straight to the
page's word view (:attr:`~repro.sim.memory.Memory.words`); an
unmapped page, a misaligned address or a big-endian host (no views)
falls back to ``read_word``/``write_word``, which allocate, raise the
alignment error and byte-swap exactly as before.

Most of those accesses are mini-C locals: two or more ``lw``/``sw``
through one base register the block does not know (``$sp``, ``$fp``),
with word-multiple offsets, before the block writes that register
again.  Such a group shares one *frame window*: one guard reads the
base once, looks its page up once and keeps the view only if the base
is aligned, every offset of the group stays inside that page and, for
a group that stores, the page holds no ``.text``; otherwise the window
is a :class:`_CallRoute`, indexed the same way but calling
``read_word``/``write_word`` (a store with its ``.text`` check).  Each
access is one line, ``regs[d] = _pN[_iN + k]`` or
``_pN[_iN + k] = value``.  A store to an address the block knows
checks ``.text`` at compile time.  ``mult``/``multu`` are inlined
(``div`` still calls :func:`~repro.isa.semantics.div_result`).

Scope and invalidation rule: the generated code and the decode cache
assume the text segment is immutable.  Self-modifying code is out of
scope; every compiled store checks, in one line, that its target lies
outside ``.text`` and raises :class:`~repro.sim.cpu.SimulationError`
otherwise (the interpreter would silently execute stale decodes
instead).  Cache timing is dynamic (miss patterns depend on
addresses), so a simulator with I/D caches configured keeps the
per-instruction interpreter.

Compiled factories are cached on the :class:`~repro.asm.program.Program`
itself, keyed by ``(pc, collect_trace, timing)``, so repeated
simulations of one program (the Table 2 sweep, differential
tests) skip code generation entirely and only re-bind the closures to
the new simulator's register file, memory and counters.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, InstrClass
from repro.isa.semantics import alu_result, div_result
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

# An aligned word at address ``_a`` through its page's word view; with no
# view (unmapped page, big-endian host) or a misaligned address the
# generated code calls ``rw``/``ww`` instead.
_VIEW_LOOKUP = f"_w = words.get(_a >> {PAGE_SHIFT})"
_VIEW_MISS = "_w is None or _a & 3"
_VIEW_WORD = f"_w[(_a & {PAGE_MASK}) >> 2]"

#: the last word index of a page's word view
_LAST_WORD = PAGE_MASK >> 2


def _sgn(expr: str) -> str:
    """Expression re-interpreting canonical-u32 ``expr`` as signed."""
    return f"(({expr} ^ 0x80000000) - 0x80000000)"


def _text_store_error(address: int) -> Exception:
    """The error every compiled store's ``.text`` check raises (in the
    compiled frame, so a traceback ends at the store, unless the store
    goes through a :class:`_CallRoute`)."""
    from repro.sim.cpu import SimulationError

    return SimulationError(
        f"store to .text at 0x{address:08x}: self-modifying code is "
        "unsupported by the fast path")


class _CallRoute:
    """A frame window whose guard failed: indexed like the page's word
    view, it reads and writes word ``i`` of the window's page through
    ``read_word``/``write_word``, which allocate, raise the alignment
    error and byte-swap as for any other access, and checks each store
    against ``.text`` as a compiled store does."""

    __slots__ = ("memory", "text_base", "text_end", "origin")

    def __init__(self, memory, text_base: int, text_end: int,
                 base: int) -> None:
        self.memory = memory
        self.text_base = text_base
        self.text_end = text_end
        #: the address of word index 0, keeping the base's low bits
        self.origin = base - ((base & PAGE_MASK) & ~3)

    def __getitem__(self, index: int) -> int:
        return self.memory.read_word((self.origin + 4 * index) & _MASK)

    def __setitem__(self, index: int, value: int) -> None:
        address = (self.origin + 4 * index) & _MASK
        if self.text_base <= address < self.text_end:
            raise _text_store_error(address)
        self.memory.write_word(address, value)


class _Emitter:
    """The source lines of one block, instruction by instruction.

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
        #: base register -> number of the frame window open through it
        self._windows: Dict[int, int] = {}
        self._window_count = 0

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

    def address(self, instr: Instruction) -> Optional[int]:
        """``_a = `` the effective address of a load or store; returns
        the address when the block knows it."""
        base = self.known.get(instr.rs)
        if base is not None:
            address = (base + instr.imm) & _MASK
            self.emit(f"_a = {address}")
            return address
        if instr.imm:
            self.emit(f"_a = (regs[{instr.rs}] + {instr.imm}) & 0xFFFFFFFF")
        else:
            self.emit(f"_a = regs[{instr.rs}]")
        return None

    def _view(self, address: Optional[int]) -> Optional[Tuple[str, str]]:
        """Emit the page lookup of a word access at ``_a``; returns the
        (miss test, view word) expressions, or None when the block
        knows the address is misaligned (the call raises).  A known
        address needs no alignment test and indexes its view with a
        literal."""
        if address is None:
            self.emit(_VIEW_LOOKUP)
            return _VIEW_MISS, _VIEW_WORD
        if address & 3:
            return None
        self.emit(f"_w = words.get({address >> PAGE_SHIFT})")
        return "_w is None", f"_w[{(address & PAGE_MASK) >> 2}]"

    def bodies(self, instrs: Sequence[Instruction]) -> None:
        """Emit the non-terminator instructions ``instrs`` in order,
        opening a frame window (:meth:`_open_window`) at the first
        access of each group that :func:`_frame_windows` finds through a
        base register the block does not know, and closing it when the
        base register is written."""
        windows = self._windows
        plan = _frame_windows(instrs)
        for index, instr in enumerate(instrs):
            group = plan.get(index)
            if group is not None and instr.rs not in self.known:
                self._open_window(instr.rs, *group)
            self.body(instr)
            dest = instr.destination()
            if dest is not None:
                windows.pop(dest, None)

    def _open_window(self, base: int, low: int, high: int,
                     stores: bool) -> None:
        """The guard of a frame window through register ``base``
        spanning word offsets ``low..high``: read the base once and look
        its page up once.  ``_pN`` is that page's word view if the base
        is aligned, every offset stays inside the page and, for a window
        that stores, the page holds no ``.text``; otherwise (or with no
        view) it is a :class:`_CallRoute` from the base."""
        first, last = max(0, -low), min(_LAST_WORD, _LAST_WORD - high)
        if first > last:  # the offsets span more than a page
            return
        n = self._window_count
        self._window_count += 1
        b, i = f"_b{n}", f"_i{n}"
        fails = [f"{b} & 3"]
        if first:
            fails.append(f"{i} < {first}")
        if last < _LAST_WORD:
            fails.append(f"{i} > {last}")
        if stores:
            first_page = self.text_base >> PAGE_SHIFT
            last_page = (self.text_end - 1) >> PAGE_SHIFT
            fails.append(f"{first_page} <= {b} >> {PAGE_SHIFT} <= {last_page}")
        self.emit(f"{b} = regs[{base}]")
        self.emit(f"{i} = ({b} & {PAGE_MASK}) >> 2")
        self.emit(f"_p{n} = (None if {' or '.join(fails)} "
                  f"else words.get({b} >> {PAGE_SHIFT})) or route({b})")
        self._windows[base] = n

    def _window_access(self, instr: Instruction, n: int) -> None:
        """Emit ``lw``/``sw`` ``instr`` through frame window ``n``: one
        line indexing the page's word view, or the window's
        :class:`_CallRoute` when the guard failed."""
        k = instr.imm >> 2
        word = f"_p{n}[_i{n} + {k}]" if k > 0 \
            else f"_p{n}[_i{n} - {-k}]" if k else f"_p{n}[_i{n}]"
        if instr.mnemonic == "sw":
            self.emit(f"{word} = {self.value(instr.rt)}")
            return
        dest = instr.destination()
        if dest is not None:
            self.write(dest, word)
        else:
            self.emit(word)  # keep the access (alignment checks)

    def body(self, instr: Instruction) -> None:
        """Emit one non-terminator instruction."""
        klass = instr.klass
        m = instr.mnemonic
        if klass is InstrClass.NOP:
            return
        window = self._windows.get(instr.rs)
        if window is not None and (m == "lw" or m == "sw") \
                and not instr.imm & 3:
            self._window_access(instr, window)
        elif klass is InstrClass.ALU or klass is InstrClass.SHIFT:
            self._alu(instr)
        elif klass is InstrClass.LOAD:
            address = self.address(instr)
            dest = instr.destination()
            if m == "lw":
                view = self._view(address)
                expr = "rw(_a)" if view is None \
                    else f"rw(_a) if {view[0]} else {view[1]}"
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
            address = self.address(instr)
            if address is None:
                self.emit(f"if {self.text_base} <= _a < {self.text_end}: "
                          "raise text_store(_a)")
            elif self.text_base <= address < self.text_end:
                self.emit("raise text_store(_a)")
                return
            value = self.value(instr.rt)
            if m == "sw":
                view = self._view(address)
                if view is None:
                    self.emit(f"ww(_a, {value})")
                else:
                    self.emit(f"if {view[0]}:")
                    self.emit(f"    ww(_a, {value})")
                    self.emit("else:")
                    self.emit(f"    {view[1]} = {value}")
            elif m == "sb":
                self.emit(f"wb(_a, {value})")
            else:  # sh
                self.emit(f"wh(_a, {value})")
        elif klass is InstrClass.MULT:
            a, b = self.value(instr.rs), self.value(instr.rt)
            if m == "mult":
                a, b = _sgn(a), _sgn(b)
            self.emit(f"_m = {a} * {b}")
            self.emit("sim.hi, sim.lo = (_m >> 32) & 0xFFFFFFFF, "
                      "_m & 0xFFFFFFFF")
        elif klass is InstrClass.DIV:
            self.emit(f"sim.hi, sim.lo = div_result('{m}', "
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
            right = str((instr.imm & _MASK) ^ 0x80000000) if imm_form \
                else self._flipped(instr.rt)
            self.write(dest,
                       f"1 if {self._flipped(instr.rs)} < {right} else 0")
        elif m in ("sltu", "sltiu"):
            b_u = repr(instr.imm & _MASK) if imm_form else b
            self.write(dest, f"1 if {rs} < {b_u} else 0")
        elif m == "sll":
            self.write(dest, f"({b} << {instr.shamt}) & 0xFFFFFFFF")
        elif m == "srl":
            self.write(dest, f"{b} >> {instr.shamt}")
        elif m == "sra":
            self.write(dest, f"({_sgn(b)} >> {instr.shamt}) & 0xFFFFFFFF")
        elif m == "sllv":
            self.write(dest, f"({b} << ({rs} & 31)) & 0xFFFFFFFF")
        elif m == "srlv":
            self.write(dest, f"{b} >> ({rs} & 31)")
        elif m == "srav":
            self.write(dest, f"({_sgn(b)} >> ({rs} & 31)) & 0xFFFFFFFF")
        else:  # pragma: no cover - ALU/SHIFT mnemonics are exhaustive
            raise ValueError(f"cannot compile {m}")

    def _flipped(self, reg: int) -> str:
        """Source reading register ``reg`` with its sign bit flipped:
        flipped values compare unsigned as the registers do signed."""
        known = self.known.get(reg)
        if known is not None:
            return str(known ^ 0x80000000)
        return f"(regs[{reg}] ^ 0x80000000)"

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
                self.emit(f"taken = {self._flipped(instr.rs)} <= 0x80000000")
            elif m == "bgtz":
                self.emit(f"taken = {self._flipped(instr.rs)} > 0x80000000")
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
        self._factories = sim.program.fastpath_cache
        self._flags = (sim.collect_trace, sim.timing)
        self._route = partial(_CallRoute, sim.memory, sim.program.text_base,
                              sim.program.text_end)

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

    # ------------------------------------------------------------------
    def compile_block(self, pc: int) -> CompiledBlock:
        """Specialize (with program-level caching) the block at ``pc``."""
        factory = self._block_factory(pc)
        sim = self.sim
        # Registering the block at first entry matches the interpreter's
        # registration at first completion (nothing runs in between), so
        # trace block ids agree between the two paths.  The block appends
        # ``code | taken``, so it gets the id pre-shifted.
        code = sim.block_at(pc).block_id << 1 if sim.collect_trace else -1
        fn = self._bind(factory, code)
        self._compiled[pc] = fn
        return fn

    def _block_factory(self, pc: int):
        """The factory of the block at ``pc``, built once per program and
        flags."""
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
                       memory.write_word, memory.words, self._route,
                       sim.output_parts, sim._trace_events.append, code)

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
        return _compile(source, f"<fastblock 0x{start_pc:08x}>")

    def _render_source(self, instrs: List[Instruction], start_pc: int,
                       cost) -> str:
        """A block's source: its body, its terminator, then one update
        of the instruction count, one packed add of every other static
        counter (:data:`~repro.sim.stats.PACKED_FIELDS`) and the trace
        event."""
        program = self.sim.program
        body: List[str] = []
        emitter = _Emitter(body, program.text_base, program.text_end)
        emitter.bodies(instrs[:-1])
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
        if self._flags[0]:  # collect_trace
            body.append(f"append(code | {taken})")
        body.append(f"return {taken}, {next_pc}")
        return _wrap(body)


def _frame_windows(instrs: Sequence[Instruction]
                   ) -> Dict[int, Tuple[int, int, bool]]:
    """The frame windows of a block body: for each group of two or more
    ``lw``/``sw`` with a word-multiple offset through one base register
    before the body writes that register again (an access that loads
    into its own base is the group's last), the index of its first
    access -> (lowest word offset, highest word offset, whether it
    stores)."""
    open_: Dict[int, Tuple[int, List[int], List[bool]]] = {}
    found: Dict[int, Tuple[int, int, bool]] = {}

    def close(base: int) -> None:
        first, offsets, stores = open_.pop(base)
        if len(offsets) > 1:
            found[first] = (min(offsets), max(offsets), any(stores))

    for index, instr in enumerate(instrs):
        m = instr.mnemonic
        if (m == "lw" or m == "sw") and instr.rs and not instr.imm & 3:
            _, offsets, stores = open_.setdefault(instr.rs, (index, [], []))
            offsets.append(instr.imm >> 2)
            stores.append(m == "sw")
        dest = instr.destination()
        if dest in open_:
            close(dest)
    for base in list(open_):
        close(base)
    return found


def _over_budget(pc: int) -> None:
    from repro.sim.cpu import SimulationError

    raise SimulationError(f"instruction budget exceeded at pc 0x{pc:08x}")


def _wrap(body: List[str]) -> str:
    """Source of a factory binding the closure with ``body`` to a
    simulator (see :meth:`FastPath._bind`)."""
    inner = "\n".join(f"        {line}" for line in body)
    return (
        "def _factory(sim, regs, stats, pend, memory, rb, rh, rw, wb, wh, "
        "ww, words, route, out, append, code):\n"
        "    def _block():\n"
        f"{inner}\n"
        "    return _block\n"
    )


def _compile(source: str, name: str):
    """Exec generated factory ``source``; returns its ``_factory``."""
    namespace = {
        "div_result": div_result,
        "handle_syscall": handle_syscall,
        "text_store": _text_store_error,
    }
    exec(compile(source, name, "exec"), namespace)
    return namespace["_factory"]
