"""The seeded kernel generator: knobs in, self-checking assembly out.

Each kernel is a loop nest (depth 1–3, fixed trip counts) around a body
of straight-line segments and if/else diamonds, emitted directly as
assembly for the table-driven assembler.  The dials of
:class:`~repro.corpus.knobs.KernelKnobs` control exactly the properties
the paper's DIM analysis cares about: basic-block size, exploitable ILP
width (independent accumulator chains), branch bias and predictability
(counter-keyed vs entropy-keyed predicates), loop depth/trip counts, and
memory intensity/stride.

Register plan (fixed; ``$at`` is reserved for pseudo-op expansion):

=========  ===========================================================
``$s0-2``  loop counters, outermost first
``$s5``    xorshift32 entropy state — the data-dependent value stream
``$s6``    strided memory cursor (word index)
``$s7``    base address of the data pool
``$t0-3``  ILP accumulator chains (``knobs.ilp`` of them live)
``$t8/9``  scratch: computed addresses / loaded values
``$a1``    diamond predicates
=========  ===========================================================

Every kernel is *self-checking*: it folds the chains, the entropy state
and the whole data pool into one 32-bit checksum, prints it (syscall
34), compares it against the expected value embedded in the kernel, and
exits 0 on match / 1 on mismatch.  Generation runs each kernel twice
through the interpreter: once with a placeholder to *learn* the
checksum (the checksum is computed and printed before the comparison,
so the placeholder cannot perturb it), then again with the real value
embedded to prove the self-check passes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.corpus.knobs import CorpusKnobs, KernelKnobs, draw_kernel_knobs, \
    kernel_seed

#: replaced by the expected checksum between the learn and verify passes.
_EXPECTED_SLOT = "__EXPECTED__"

#: dynamic-instruction ceiling for generation-time runs; a kernel that
#: trips this is a generator bug, not a slow kernel.
_RUN_CEILING = 400_000

#: chain registers in issue order.
_CHAINS = ("$t0", "$t1", "$t2", "$t3")
_COUNTERS = ("$s0", "$s1", "$s2")

#: commutative-ish ALU mixing ops for chain updates (op, needs_rt).
_ALU_OPS = ("addu", "subu", "xor", "or", "and")


@dataclass(frozen=True)
class GeneratedKernel:
    """One finished kernel plus its identity and provenance."""

    name: str
    index: int
    seed: int
    source: str
    checksum: int
    knobs: KernelKnobs
    category: str
    #: sha256 of the final (expected-embedded) assembly source.
    source_sha256: str
    #: sha256 over the assembled image: entry, text bytes, data bytes.
    encoding_sha256: str
    #: sha256 of the program's architectural output (the printed hex).
    result_hash: str
    instructions: int
    blocks: int

    def manifest_entry(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "index": self.index,
            "category": self.category,
            "knobs": self.knobs.to_dict(),
            "checksum": f"0x{self.checksum:08x}",
            "source_sha256": self.source_sha256,
            "encoding_sha256": self.encoding_sha256,
            "result_hash": self.result_hash,
            "instructions": self.instructions,
            "blocks": self.blocks,
        }


class GenerationError(RuntimeError):
    """A generated kernel failed its generation-time self-check."""


def kernel_name(seed: int, index: int) -> str:
    return f"c{seed}k{index:03d}"


class _Emitter:
    """Accumulates assembly lines for one kernel."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._label = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def label(self, name: str) -> None:
        self.lines.append(name + ":")

    def fresh(self, stem: str) -> str:
        self._label += 1
        return f"{stem}_{self._label}"

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def generate_source(seed: int, index: int, knobs: KernelKnobs,
                    expected: Optional[int] = None) -> str:
    """Emit the kernel's assembly, deterministically.

    With ``expected=None`` the self-check slot holds a placeholder (the
    learn pass); with a value it holds that checksum.  Both calls make
    identical RNG draws, so the two sources differ only in the embedded
    constant — this is what makes manifests regenerable from
    ``(seed, index, knobs, checksum)`` alone.
    """
    rng = Random(kernel_seed(seed, index) ^ 0x5DEECE66D)
    out = _Emitter()
    chains = _CHAINS[:knobs.ilp]

    pool_init = [rng.getrandbits(32) for _ in range(knobs.pool_words)]
    entropy_init = rng.getrandbits(32) or 0x9E3779B9

    out.lines.append(f"# corpus kernel {kernel_name(seed, index)}")
    out.lines.append(".data")
    out.label("pool")
    for i in range(0, knobs.pool_words, 8):
        words = ", ".join(f"0x{w:08x}" for w in pool_init[i:i + 8])
        out.emit(f".word {words}")
    out.lines.append(".text")
    out.label("__start")
    out.emit(f"li $s5, 0x{entropy_init:08x}")
    out.emit("li $s6, 0")
    out.emit("la $s7, pool")
    for i, chain in enumerate(chains):
        out.emit(f"li {chain}, 0x{rng.getrandbits(32):08x}")

    # Loop nest prologue/epilogue bracket the body.
    loop_tops: List[Tuple[str, str, int]] = []
    for depth, trip in enumerate(knobs.trips):
        counter = _COUNTERS[depth]
        top = out.fresh("loop")
        out.emit(f"li {counter}, 0")
        out.label(top)
        loop_tops.append((top, counter, trip))

    _emit_body(out, rng, knobs, chains)

    for top, counter, trip in reversed(loop_tops):
        out.emit(f"addiu {counter}, {counter}, 1")
        out.emit(f"blt {counter}, {trip}, {top}")

    _emit_checksum(out, knobs, chains, expected)
    return out.text()


def _emit_body(out: _Emitter, rng: Random, knobs: KernelKnobs,
               chains: Tuple[str, ...]) -> None:
    inner_counter = _COUNTERS[len(knobs.trips) - 1]
    inner_trip = knobs.trips[-1]
    for seg in range(knobs.segments):
        _emit_entropy_step(out)
        _emit_segment(out, rng, knobs, chains)
        if seg < knobs.diamonds:
            _emit_diamond(out, rng, knobs, chains, inner_counter,
                          inner_trip)
    # Any diamonds beyond the segment count trail the last segment.
    for _ in range(knobs.segments, knobs.diamonds):
        _emit_diamond(out, rng, knobs, chains, inner_counter, inner_trip)


def _emit_entropy_step(out: _Emitter) -> None:
    """One xorshift32 step on ``$s5`` — the data-dependent value stream."""
    out.emit("sll $t8, $s5, 13")
    out.emit("xor $s5, $s5, $t8")
    out.emit("srl $t8, $s5, 17")
    out.emit("xor $s5, $s5, $t8")
    out.emit("sll $t8, $s5, 5")
    out.emit("xor $s5, $s5, $t8")


def _emit_segment(out: _Emitter, rng: Random, knobs: KernelKnobs,
                  chains: Tuple[str, ...]) -> None:
    """One straight-line block of ``block_size`` ops.

    ALU ops round-robin across the accumulator chains so a width-N
    kernel really carries N independent dependence chains for the array
    to exploit; a ``mem_intensity`` fraction of slots become pool
    loads/stores (alternating strided-cursor and chain-indexed
    addressing, biased by the stride knob); a ``mult_weight`` fraction
    become multiplies.
    """
    mask = knobs.pool_words - 1
    for slot in range(knobs.block_size):
        chain = chains[slot % len(chains)]
        other = chains[(slot + 1) % len(chains)]
        if rng.random() < knobs.mem_intensity:
            if rng.random() < 0.5:
                # Strided walk: cursor advances by the stride knob.
                out.emit(f"addiu $s6, $s6, {knobs.mem_stride}")
                out.emit(f"andi $t8, $s6, {mask}")
            else:
                # Irregular: index comes from live chain data.
                out.emit(f"andi $t8, {chain}, {mask}")
            out.emit("sll $t8, $t8, 2")
            out.emit("addu $t8, $t8, $s7")
            if rng.random() < 0.3:
                out.emit(f"sw {chain}, 0($t8)")
            else:
                out.emit("lw $t9, 0($t8)")
                out.emit(f"addu {chain}, {chain}, $t9")
        elif rng.random() < knobs.mult_weight:
            out.emit(f"mul {chain}, {chain}, {other}")
            out.emit(f"addiu {chain}, {chain}, {rng.randint(1, 255)}")
        else:
            op = _ALU_OPS[rng.randrange(len(_ALU_OPS))]
            if op in ("or", "and"):
                # Pure or/and converges to fixpoints; mix an addiu in.
                out.emit(f"{op} {chain}, {chain}, {other}")
                out.emit(f"addiu {chain}, {chain}, "
                         f"{rng.randint(1, 4095)}")
            else:
                out.emit(f"{op} {chain}, {chain}, {other}")


def _emit_diamond(out: _Emitter, rng: Random, knobs: KernelKnobs,
                  chains: Tuple[str, ...], counter: str,
                  trip: int) -> None:
    """One if/else diamond.

    Predictable diamonds key on the innermost loop counter (taken for
    the first ``bias * trip`` iterations — a pattern any history
    predictor nails); unpredictable ones key on the entropy stream
    (taken with probability ``bias`` but patternless).
    """
    then_label = out.fresh("then")
    end_label = out.fresh("end")
    predictable = rng.random() < knobs.predictability
    if predictable:
        threshold = max(1, min(trip - 1, round(knobs.branch_bias * trip))) \
            if trip > 1 else 1
        out.emit(f"slti $a1, {counter}, {threshold}")
    else:
        threshold = max(1, min(255, round(knobs.branch_bias * 256)))
        out.emit("andi $a1, $s5, 255")
        out.emit(f"slti $a1, $a1, {threshold}")
    chain = chains[rng.randrange(len(chains))]
    other = chains[rng.randrange(len(chains))]
    out.emit(f"bnez $a1, {then_label}")
    out.emit(f"xor {chain}, {chain}, {other}")
    out.emit(f"addiu {chain}, {chain}, {rng.randint(1, 1023)}")
    out.emit(f"j {end_label}")
    out.label(then_label)
    out.emit(f"addu {chain}, {chain}, {other}")
    out.emit(f"sll $t8, {chain}, {rng.randint(1, 7)}")
    out.emit(f"xor {chain}, {chain}, $t8")
    out.label(end_label)


def _emit_checksum(out: _Emitter, knobs: KernelKnobs,
                   chains: Tuple[str, ...],
                   expected: Optional[int]) -> None:
    """Fold all live state into ``$a0``, print it, self-check, exit.

    The fold and the print happen *before* the comparison, so the
    printed checksum is identical whether the embedded expectation is
    the placeholder or the real value — that is what lets the learn
    pass read the truth.
    """
    out.emit(f"move $a0, {chains[0]}")
    for chain in chains[1:]:
        out.emit(f"xor $a0, $a0, {chain}")
        out.emit(f"sll $t8, $a0, 1")
        out.emit("xor $a0, $a0, $t8")
    out.emit("addu $a0, $a0, $s5")
    fold = out.fresh("fold")
    out.emit("li $s0, 0")
    out.emit("move $t8, $s7")
    out.label(fold)
    out.emit("lw $t9, 0($t8)")
    out.emit("xor $a0, $a0, $t9")
    out.emit("addu $a0, $a0, $s0")
    out.emit("addiu $t8, $t8, 4")
    out.emit("addiu $s0, $s0, 1")
    out.emit(f"blt $s0, {knobs.pool_words}, {fold}")
    out.emit("li $v0, 34")
    out.emit("syscall")
    slot = _EXPECTED_SLOT if expected is None else f"0x{expected:08x}"
    out.emit(f"li $t8, {slot}")
    pass_label = out.fresh("pass")
    out.emit(f"beq $a0, $t8, {pass_label}")
    out.emit("li $a0, 1")
    out.emit("li $v0, 17")
    out.emit("syscall")
    out.label(pass_label)
    out.emit("li $v0, 10")
    out.emit("syscall")


# ---------------------------------------------------------------------------
# Generation with self-check.
# ---------------------------------------------------------------------------

def encoding_fingerprint(source: str) -> str:
    """sha256 over the assembled image — entry point, text, data.

    This is the artifact the caches and fleet shards actually key on, so
    the determinism property is stated (and tested) at this level, not
    just over source text.
    """
    from repro.asm import assemble

    program = assemble(source)
    digest = hashlib.sha256()
    digest.update(program.entry.to_bytes(4, "little"))
    digest.update(len(program.text).to_bytes(4, "little"))
    digest.update(program.text)
    digest.update(program.data)
    return digest.hexdigest()


def generate_kernel(seed: int, index: int,
                    corpus: Optional[CorpusKnobs] = None,
                    knobs: Optional[KernelKnobs] = None) -> GeneratedKernel:
    """Generate, self-check and fingerprint one kernel.

    Runs the learn pass and the verify pass through the reference
    interpreter, not the block compiler: the architectural reference
    engine vouches for the checksum.  Raises :class:`GenerationError`
    if the verify pass does not exit 0 printing the learned checksum.
    """
    from repro.asm import assemble
    from repro.sim import run_program

    if knobs is None:
        knobs = draw_kernel_knobs(seed, index, corpus or CorpusKnobs.mixed())

    learn_source = generate_source(seed, index, knobs, expected=None)
    learn_text = learn_source.replace(_EXPECTED_SLOT, "0x00000000")
    learn = run_program(assemble(learn_text), collect_trace=False,
                        max_instructions=_RUN_CEILING, fast=False)
    output = learn.output.strip()
    if not output.startswith("0x") or len(output) != 10:
        raise GenerationError(
            f"kernel {kernel_name(seed, index)}: learn pass printed "
            f"{learn.output!r}, expected one 0x%08x checksum")
    checksum = int(output, 16)

    source = generate_source(seed, index, knobs, expected=checksum)
    verify = run_program(assemble(source), collect_trace=True,
                         max_instructions=_RUN_CEILING, fast=False)
    if verify.exit_code != 0 or verify.output != learn.output:
        raise GenerationError(
            f"kernel {kernel_name(seed, index)}: self-check failed "
            f"(exit {verify.exit_code}, output {verify.output!r} vs "
            f"{learn.output!r})")

    blocks = len(verify.trace.block_execution_counts()) \
        if verify.trace is not None else 0
    return GeneratedKernel(
        name=kernel_name(seed, index), index=index, seed=seed,
        source=source, checksum=checksum, knobs=knobs,
        category=knobs.category,
        source_sha256=hashlib.sha256(source.encode()).hexdigest(),
        encoding_sha256=encoding_fingerprint(source),
        result_hash=hashlib.sha256(verify.output.encode()).hexdigest(),
        instructions=verify.stats.instructions, blocks=int(blocks))
