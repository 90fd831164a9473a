"""mini-C lexer."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

KEYWORDS = {
    "int", "unsigned", "char", "void", "if", "else", "while", "for", "do",
    "break", "continue", "return",
}

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",",
]

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


class LexerError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    """kind is one of: 'num', 'ident', 'kw', 'op', 'str', 'eof'."""

    kind: str
    text: str
    value: int  # numeric value for 'num', 0 otherwise
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


#: one token (or one run of blanks) at a position, by the first group
#: that matches.  Identifiers and numbers start with an ASCII character
#: here; literals, non-ASCII starts and stray characters fall to
#: :func:`_scan_other`, which keeps the rules of ``str.isalpha`` /
#: ``str.isdigit`` for them.
_TOKEN_RE = re.compile("|".join((
    r"(?P<blank>[ \t\r]+)",
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<block>/\*)",
    r"(?P<hex>0[xX][0-9a-fA-F]*)",
    # a digit run followed by a non-ASCII character may go on with a
    # Unicode digit: leave those to _scan_other
    r"(?P<num>[0-9]+)(?![0-9]|[^\x00-\x7f])",
    r"(?P<word>[A-Za-z_]\w*)",
    "(?P<op>" + "|".join(re.escape(op) for op in _OPERATORS) + ")",
)))


def tokenize(source: str) -> List[Token]:
    """Tokenize mini-C source; raises :class:`LexerError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    i = 0
    line = 1
    n = len(source)
    while i < n:
        match = match_at(source, i)
        if match is None:
            token, i = _scan_other(source, i, line)
            append(token)
            continue
        kind = match.lastgroup
        end = match.end()
        if kind == "word":
            text = match.group()
            append(Token("kw" if text in KEYWORDS else "ident", text, 0,
                         line))
        elif kind == "op":
            append(Token("op", match.group(), 0, line))
        elif kind == "num":
            text = match.group()
            append(Token("num", text, int(text), line))
        elif kind == "newline":
            line += 1
        elif kind == "hex":
            text = match.group()
            append(Token("num", text, int(text, 16), line))
        elif kind == "block":
            close = source.find("*/", end)
            if close < 0:
                raise LexerError("unterminated block comment", line)
            line += source.count("\n", i, close)
            end = close + 2
        i = end
    tokens.append(Token("eof", "", 0, line))
    return tokens


def _scan_other(source: str, i: int, line: int) -> Tuple[Token, int]:
    """The token at ``i`` that :data:`_TOKEN_RE` leaves alone: a char or
    string literal, or an identifier or number starting with a non-ASCII
    character.  Returns the token and the index after it."""
    n = len(source)
    ch = source[i]
    if ch.isdigit():
        j = i
        while j < n and source[j].isdigit():
            j += 1
        return Token("num", source[i:j], int(source[i:j]), line), j
    if ch.isalpha():
        j = i
        while j < n and (source[j].isalnum() or source[j] == "_"):
            j += 1
        text = source[i:j]
        kind = "kw" if text in KEYWORDS else "ident"
        return Token(kind, text, 0, line), j
    if ch == "'":
        j = i + 1
        if j < n and source[j] == "\\":
            if j + 1 >= n or source[j + 1] not in _ESCAPES:
                raise LexerError("bad escape in char literal", line)
            value = _ESCAPES[source[j + 1]]
            j += 2
        elif j < n:
            value = ord(source[j])
            j += 1
        else:
            raise LexerError("unterminated char literal", line)
        if j >= n or source[j] != "'":
            raise LexerError("unterminated char literal", line)
        return Token("num", source[i:j + 1], value, line), j + 1
    if ch == '"':
        j = i + 1
        chars: List[str] = []
        while j < n and source[j] != '"':
            if source[j] == "\\":
                if j + 1 >= n or source[j + 1] not in _ESCAPES:
                    raise LexerError("bad escape in string", line)
                chars.append(chr(_ESCAPES[source[j + 1]]))
                j += 2
            else:
                chars.append(source[j])
                j += 1
        if j >= n:
            raise LexerError("unterminated string", line)
        return Token("str", "".join(chars), 0, line), j + 1
    raise LexerError(f"unexpected character {ch!r}", line)
