"""mini-C recursive-descent parser."""

from __future__ import annotations

from typing import List, Optional

from repro.minic.astnodes import (
    AssignStmt,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    ContinueStmt,
    DeclStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FuncDef,
    GlobalDecl,
    IfStmt,
    IndexExpr,
    NumExpr,
    Param,
    ReturnStmt,
    Stmt,
    StrExpr,
    Type,
    Unit,
    UnaryExpr,
    VarExpr,
    WhileStmt,
)
from repro.minic.lexer import Token, tokenize


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


#: binary operators by increasing precedence level.
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

#: each binary operator's level in :data:`_BINARY_LEVELS`.
_BINARY_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS)
                      for op in ops}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}


class Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ----------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._cur
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self._check(kind, text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {self._cur.text!r}",
                self._cur.line)
        return self._advance()

    # -- top level ---------------------------------------------------------
    def parse_unit(self) -> Unit:
        unit = Unit()
        while not self._check("eof"):
            base = self._parse_base_type()
            name = self._expect("ident").text
            if self._check("op", "("):
                unit.functions.append(self._parse_function(base, name))
            else:
                unit.globals.append(self._parse_global(base, name))
        return unit

    def _parse_base_type(self) -> str:
        token = self._cur
        if token.kind == "kw" and token.text in ("int", "unsigned", "char",
                                                 "void"):
            self._advance()
            # allow "unsigned int" / "unsigned char"
            if token.text == "unsigned" and self._check("kw", "int"):
                self._advance()
                return "unsigned"
            if token.text == "unsigned" and self._check("kw", "char"):
                self._advance()
                return "char"
            return token.text
        raise ParseError(f"expected type, found {token.text!r}", token.line)

    def _parse_global(self, base: str, name: str) -> GlobalDecl:
        line = self._cur.line
        array: Optional[int] = None
        if self._accept("op", "["):
            if self._check("num"):
                array = self._advance().value
            else:
                array = 0  # sized by the initializer
            self._expect("op", "]")
        init = None
        if self._accept("op", "="):
            init = self._parse_global_init()
        self._expect("op", ";")
        if array is not None:
            if isinstance(init, list) and array == 0:
                array = len(init)
            elif isinstance(init, str) and array == 0:
                array = len(init) + 1
            if array == 0:
                raise ParseError(f"array {name!r} needs a size", line)
        if array is None and isinstance(init, (list, str)):
            raise ParseError(f"scalar {name!r} with aggregate init", line)
        return GlobalDecl(Type(base, array), name, init, line)

    def _parse_global_init(self):
        if self._check("str"):
            return self._advance().text
        if self._accept("op", "{"):
            values = []
            while not self._check("op", "}"):
                values.append(self._const_expr())
                if not self._accept("op", ","):
                    break
            self._expect("op", "}")
            return values
        return self._const_expr()

    def _const_expr(self) -> int:
        """Fold a constant expression (numbers, unary ops, arithmetic)."""
        expr = self.parse_expr()
        return _fold(expr)

    # -- functions -----------------------------------------------------------
    def _parse_function(self, base: str, name: str) -> FuncDef:
        line = self._cur.line
        self._expect("op", "(")
        params: List[Param] = []
        if not self._check("op", ")"):
            if self._check("kw", "void") and \
                    self._tokens[self._pos + 1].text == ")":
                self._advance()
            else:
                while True:
                    pbase = self._parse_base_type()
                    pname = self._expect("ident").text
                    ptype = Type(pbase)
                    if self._accept("op", "["):
                        self._expect("op", "]")
                        ptype = Type(pbase, 0)
                    params.append(Param(ptype, pname))
                    if not self._accept("op", ","):
                        break
        self._expect("op", ")")
        body = self._parse_block()
        return FuncDef(Type(base), name, params, body, line)

    # -- statements ------------------------------------------------------------
    def _parse_block(self) -> List[Stmt]:
        self._expect("op", "{")
        stmts: List[Stmt] = []
        while not self._check("op", "}"):
            stmts.extend(self._parse_stmt())
        self._expect("op", "}")
        return stmts

    def _parse_stmt(self) -> List[Stmt]:  # noqa: C901 - case split
        token = self._cur
        if self._check("op", "{"):
            return self._parse_block()
        if self._accept("op", ";"):
            return []
        if token.kind == "kw":
            if token.text in ("int", "unsigned", "char"):
                return [self._parse_decl()]
            if token.text == "if":
                return [self._parse_if()]
            if token.text == "while":
                return [self._parse_while()]
            if token.text == "do":
                return [self._parse_do()]
            if token.text == "for":
                return [self._parse_for()]
            if token.text == "break":
                self._advance()
                self._expect("op", ";")
                return [BreakStmt(token.line)]
            if token.text == "continue":
                self._advance()
                self._expect("op", ";")
                return [ContinueStmt(token.line)]
            if token.text == "return":
                self._advance()
                value = None
                if not self._check("op", ";"):
                    value = self.parse_expr()
                self._expect("op", ";")
                return [ReturnStmt(token.line, value)]
            raise ParseError(f"unexpected keyword {token.text!r}",
                             token.line)
        stmt = self._parse_simple_stmt()
        self._expect("op", ";")
        return [stmt]

    def _parse_decl(self) -> DeclStmt:
        line = self._cur.line
        base = self._parse_base_type()
        name = self._expect("ident").text
        decl_type = Type(base)
        init = None
        if self._accept("op", "["):
            size = self._expect("num").value
            self._expect("op", "]")
            decl_type = Type(base, size)
        elif self._accept("op", "="):
            init = self.parse_expr()
        self._expect("op", ";")
        return DeclStmt(line, decl_type, name, init)

    def _parse_simple_stmt(self) -> Stmt:
        """Assignment, ++/--, or expression statement (no semicolon)."""
        line = self._cur.line
        expr = self.parse_expr()
        token = self._cur
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self._advance()
            if not isinstance(expr, (VarExpr, IndexExpr)):
                raise ParseError("assignment target is not an lvalue", line)
            value = self.parse_expr()
            op = "" if token.text == "=" else token.text[:-1]
            return AssignStmt(line, expr, op, value)
        if token.kind == "op" and token.text in ("++", "--"):
            self._advance()
            if not isinstance(expr, (VarExpr, IndexExpr)):
                raise ParseError("++/-- target is not an lvalue", line)
            op = "+" if token.text == "++" else "-"
            return AssignStmt(line, expr, op, NumExpr(line, value=1))
        return ExprStmt(line, expr)

    def _parse_if(self) -> IfStmt:
        line = self._advance().line
        self._expect("op", "(")
        cond = self.parse_expr()
        self._expect("op", ")")
        then_body = self._parse_stmt()
        else_body: List[Stmt] = []
        if self._accept("kw", "else"):
            else_body = self._parse_stmt()
        return IfStmt(line, cond, then_body, else_body)

    def _parse_while(self) -> WhileStmt:
        line = self._advance().line
        self._expect("op", "(")
        cond = self.parse_expr()
        self._expect("op", ")")
        return WhileStmt(line, cond, self._parse_stmt())

    def _parse_do(self) -> WhileStmt:
        line = self._advance().line
        body = self._parse_stmt()
        self._expect("kw", "while")
        self._expect("op", "(")
        cond = self.parse_expr()
        self._expect("op", ")")
        self._expect("op", ";")
        return WhileStmt(line, cond, body, is_do=True)

    def _parse_for(self) -> ForStmt:
        line = self._advance().line
        self._expect("op", "(")
        init: Optional[Stmt] = None
        if not self._check("op", ";"):
            init = self._parse_simple_stmt()
        self._expect("op", ";")
        cond: Optional[Expr] = None
        if not self._check("op", ";"):
            cond = self.parse_expr()
        self._expect("op", ";")
        step: Optional[Stmt] = None
        if not self._check("op", ")"):
            step = self._parse_simple_stmt()
        self._expect("op", ")")
        return ForStmt(line, init, cond, step, self._parse_stmt())

    # -- expressions -------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: a unary operand, then every binary
        operator binding at least as tightly as ``min_level``, each
        left-associative (its right operand binds one level tighter)."""
        expr = self._parse_unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            level = _BINARY_PRECEDENCE.get(token.text) \
                if token.kind == "op" else None
            if level is None or level < min_level:
                return expr
            self._pos += 1
            right = self._parse_binary(level + 1)
            expr = BinaryExpr(token.line, op=token.text, left=expr,
                              right=right)

    def _parse_unary(self) -> Expr:
        token = self._cur
        if token.kind == "op" and token.text in ("-", "~", "!", "+"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return UnaryExpr(token.line, op=token.text, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self._check("op", "["):
                line = self._advance().line
                index = self.parse_expr()
                self._expect("op", "]")
                expr = IndexExpr(line, base=expr, index=index)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        token = self._cur
        if token.kind == "num":
            self._advance()
            return NumExpr(token.line, value=token.value)
        if token.kind == "str":
            self._advance()
            return StrExpr(token.line, text=token.text)
        if token.kind == "ident":
            self._advance()
            if self._check("op", "("):
                self._advance()
                args: List[Expr] = []
                if not self._check("op", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self._accept("op", ","):
                            break
                self._expect("op", ")")
                return CallExpr(token.line, name=token.text, args=args)
            return VarExpr(token.line, name=token.text)
        if self._accept("op", "("):
            expr = self.parse_expr()
            self._expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.line)


def _fold(expr: Expr) -> int:
    """Constant-fold an expression used in a global initializer."""
    if isinstance(expr, NumExpr):
        return expr.value
    if isinstance(expr, UnaryExpr):
        value = _fold(expr.operand)
        if expr.op == "-":
            return -value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(not value)
    if isinstance(expr, BinaryExpr):
        a, b = _fold(expr.left), _fold(expr.right)
        table = {
            "+": a + b, "-": a - b, "*": a * b,
            "|": a | b, "&": a & b, "^": a ^ b,
            "<<": a << (b & 31), ">>": (a & 0xFFFFFFFF) >> (b & 31),
        }
        if expr.op in table:
            return table[expr.op]
        if expr.op in ("/", "%") and b != 0:
            return a // b if expr.op == "/" else a % b
    raise ParseError("initializer is not a constant expression", expr.line)


def parse(source: str) -> Unit:
    """Parse mini-C source into a :class:`~repro.minic.astnodes.Unit`."""
    return Parser(tokenize(source)).parse_unit()
