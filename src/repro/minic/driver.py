"""mini-C compilation driver."""

from __future__ import annotations

from typing import Optional

from repro.asm import assemble
from repro.asm.program import Program
from repro.minic.codegen import CodegenError, generate
from repro.minic.lexer import LexerError
from repro.minic.parser import ParseError, parse
from repro.minic.sema import SemaError, analyze


class CompileError(Exception):
    """Wraps any stage failure with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


def compile_source(source: str, optimize: bool = False) -> str:
    """Compile mini-C source to MIPS assembly text.

    ``optimize`` enables the peephole pass (store-to-load forwarding);
    it is off by default — the paper-facing calibration is defined
    against the plain output (see `repro.minic.optimizer`).
    """
    try:
        unit = parse(source)
    except (LexerError, ParseError) as exc:
        raise CompileError("parse", exc) from exc
    try:
        sema = analyze(unit)
    except SemaError as exc:
        raise CompileError("sema", exc) from exc
    try:
        text = generate(sema)
    except CodegenError as exc:
        raise CompileError("codegen", exc) from exc
    if optimize:
        from repro.minic.optimizer import optimize_assembly

        text = optimize_assembly(text)
    return text


def compile_to_program(source: str,
                       source_name: Optional[str] = None,
                       optimize: bool = False) -> Program:
    """Compile mini-C source to a loadable :class:`Program`.

    The program starts at ``__start``, which calls ``main`` and exits
    with its return value (low 8 bits).
    """
    asm_text = compile_source(source, optimize=optimize)
    program = assemble(asm_text)
    if source_name:
        program.source_name = source_name
    return program
