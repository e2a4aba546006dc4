"""Mini expression language for user-defined coefficient entries.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := number | 'i' | 'x1' | 'x2' | func '(' expr ')'
              | '(' expr ')' | factor '^' integer
    func   in {sin, cos, exp}

Expressions are evaluated pointwise on a grid; parse errors report
line/column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

__all__ = ["ExprError", "parse_expr", "evaluate_expr"]

_DIV_FLOOR = 1e-14

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


class ExprError(ValueError):
    """Syntax or evaluation error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            continue
        if kind == "bad":
            raise ExprError(f"unexpected character {text!r}", line, col)
        tokens.append(_Token(kind, text, line, col))
        col += len(text)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.cur
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.cur
        if tok.kind != "end":
            raise ExprError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self):
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance()
            node = (op.text, node, self.unary(), (op.line, op.col))
        return node

    def unary(self):
        # binds looser than '^', so -2^2 is -(2^2)
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            return ("neg", self.unary())
        return self.factor()

    def factor(self):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            node = ("num", float(tok.text))
        elif tok.kind == "name":
            self.advance()
            if tok.text == "i":
                node = ("num", 1j)
            elif tok.text in ("x1", "x2"):
                node = ("var", tok.text, (tok.line, tok.col))
            elif tok.text in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                node = ("func", tok.text, arg)
            else:
                raise ExprError(f"unknown identifier {tok.text!r}", tok.line, tok.col)
        elif tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
        else:
            raise ExprError(f"unexpected token {tok.text or 'end of input'!r}", tok.line, tok.col)
        while self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            etok = self.cur
            if etok.kind != "number" or "." in etok.text:
                raise ExprError("exponent must be an integer", etok.line, etok.col)
            self.advance()
            node = ("pow", node, int(etok.text))
        return node


def parse_expr(src: str):
    """Parse an expression; deterministic, raises ExprError with position."""
    return _Parser(_tokenize(src)).parse()


def _eval(node, env: dict) -> np.ndarray | complex:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        name, pos = node[1], node[2]
        if name not in env:
            raise ExprError(f"variable {name!r} not available on this grid", *pos)
        return env[name]
    if kind == "func":
        return _FUNCS[node[1]](_eval(node[2], env))
    if kind == "pow":
        return _eval(node[1], env) ** node[2]
    if kind == "neg":
        return -_eval(node[1], env)
    if kind in ("+", "-") and len(node) == 3:
        a, b = _eval(node[1], env), _eval(node[2], env)
        return a + b if kind == "+" else a - b
    if kind in ("*", "/"):
        a, b = _eval(node[1], env), _eval(node[2], env)
        if kind == "*":
            return a * b
        bad = np.abs(np.asarray(b)) < _DIV_FLOOR
        if np.any(bad):
            raise ExprError("division by a value below 1e-14", *node[3])
        return a / b
    raise AssertionError(f"bad node {node!r}")


def evaluate_expr(src: str, grid: GridSpec) -> np.ndarray:
    """Evaluate an expression pointwise on the grid; returns a complex array."""
    node = parse_expr(src)
    pts = grid.points()
    env = {"x1": pts[0]}
    if grid.n == 2:
        env["x2"] = pts[1]
    val = _eval(node, env)
    return np.broadcast_to(np.asarray(val, dtype=complex), grid.shape).copy()
