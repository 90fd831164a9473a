"""Byte identity of the toolchain front end.

``tests/data/program_digests.json`` pins, for every built-in workload,
the SHA-256 of its assembled ``.text`` and ``.data``, its entry point,
its mini-C token stream and its parse tree, and the full token stream
(or error) of every source that ``tests/test_minic_frontend.py`` lexes.
Any rewrite of the lexer, the parser or the assembler must leave all of
them unchanged.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.asm.assembler import Assembler
from repro.minic import compile_to_program, parse
from repro.minic.lexer import tokenize
from repro.workloads import builtin_workloads

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "program_digests.json").read_text())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stream(source):
    try:
        return [[t.kind, t.text, t.value, t.line] for t in tokenize(source)]
    except Exception as exc:  # the golden records the error raised
        return {"error": type(exc).__name__, "message": str(exc)}


def test_golden_covers_every_builtin_workload():
    assert sorted(GOLDEN["programs"]) == sorted(
        w.name for w in builtin_workloads())


@pytest.mark.parametrize("workload", builtin_workloads(),
                         ids=lambda w: w.name)
def test_workload_assembles_to_pinned_bytes(workload):
    golden = GOLDEN["programs"][workload.name]
    tokens = json.dumps(_stream(workload.source),
                        separators=(",", ":")).encode()
    assert _sha(tokens) == golden["tokens"]
    assert _sha(repr(parse(workload.source)).encode()) == golden["ast"]
    program = compile_to_program(workload.source, source_name=workload.name)
    assert _sha(program.text) == golden["text"]
    assert _sha(program.data) == golden["data"]
    assert program.entry == golden["entry"]


def test_frontend_test_sources_lex_to_pinned_streams():
    assert len(GOLDEN["token_streams"]) >= 30
    for case in GOLDEN["token_streams"]:
        assert _stream(case["source"]) == case["tokens"], case["source"]


def _strip_comment_reference(line: str) -> str:
    """The character-at-a-time definition: cut at the first ``#`` or
    ``;`` outside a string; a quote after a backslash does not toggle."""
    out = []
    in_str = False
    for i, ch in enumerate(line):
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        if not in_str and ch in "#;":
            break
        out.append(ch)
    return "".join(out)


def test_strip_comment_matches_its_definition():
    rng = random.Random(20)
    for _ in range(20000):
        line = "".join(rng.choice('ab"\\#; ')
                       for _ in range(rng.randint(0, 14)))
        assert Assembler._strip_comment(line) == \
            _strip_comment_reference(line), line
