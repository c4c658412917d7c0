"""The recursive-descent parser that ``geobyte.expressions`` used before
its stack parser, kept verbatim as the reference the tests hold the
stack parser to: the same values bit for bit, the same trees and the same
:class:`ParseError` message, offset and expected set for every text.

``reference_parse(text)`` returns the tree and ``reference_evaluate_text``
the value, each through the reference's own six node builders."""

from __future__ import annotations

import math
import operator
import re
from typing import Iterator

from geobyte.errors import ParseError
from geobyte.expressions import (
    _CONSTANTS,
    _FUNC_IMPL,
    _I,
    FUNC_NAMES,
    MAX_DEPTH,
    BinOp,
    Const,
    Func,
    Imaginary,
    Literal,
    Neg,
    _Node,
)
from geobyte.multivector import Multivector

# -- tokenizer ---------------------------------------------------------

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# every alternative can match, so each call yields exactly one token;
# "end" matches again at the end of the text
_TOKEN = re.compile(
    rf"\s*(?:(?P<number>(?P<num>{_UNSIGNED})(?:/(?P<den>(?:{_UNSIGNED})?))?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*()])|(?P<end>\Z)|(?P<bad>.))",
    re.S,
)

Token = tuple[str, str, int, float]  # kind, text, offset, number value


def _tokenize(text: str) -> Iterator[Token]:
    """Yield tokens on demand; a bad token raises when it is reached."""
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        offset = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", offset, frozenset({"token"}))
        value = 0.0
        if kind == "number":
            num, den = m.group("num", "den")
            value = float(num)
            if den == "":
                raise ParseError("expected denominator", m.start("den"), frozenset({"number"}))
            if den is not None:
                if float(den) == 0.0:
                    raise ParseError("division by zero", offset, frozenset({"number"}))
                value /= float(den)
            if not math.isfinite(value):
                raise ParseError("number is not finite", offset, frozenset({"number"}))
        yield kind, m[kind], offset, value


# -- parser ------------------------------------------------------------

_ATOM_EXPECTED = frozenset({"number", "constant", "i", "function", "("})


def _unexpected(tok: Token, expected: frozenset[str]) -> ParseError:
    kind, text, offset, _ = tok
    if kind == "end":
        return ParseError("unexpected end of input", offset, expected)
    return ParseError(f"unexpected {kind} {text!r}", offset, expected)


class _Parser:
    """The grammar above; ``build`` holds the six node builders, in the
    order number, i, constant, negation, function and binary operator.
    A builder must not raise, so every error is the grammar's own."""

    def __init__(self, text: str, build: tuple):
        self.number, self.imaginary, self.const, self.neg, self.func, self.binop = build
        self.tokens = _tokenize(text)
        self.tok = next(self.tokens)
        self.depth = 0

    def advance(self) -> Token:
        tok, self.tok = self.tok, next(self.tokens)
        return tok

    def expect(self, text: str) -> None:
        if self.tok[1] != text:
            raise _unexpected(self.tok, frozenset({text}))
        self.advance()

    def enter(self, tok: Token) -> None:
        """One nesting level deeper, opened by ``tok``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"nesting deeper than {MAX_DEPTH} levels", tok[2], frozenset({"number", "constant", "i"})
            )

    def expr(self) -> _Node:
        node = self.term()
        while self.tok[1] in ("+", "-"):
            node = self.binop(self.advance()[1], node, self.term())
        return node

    def term(self) -> _Node:
        node = self.factor()
        while self.tok[1] == "*":
            self.advance()
            node = self.binop("*", node, self.factor())
        return node

    def factor(self) -> _Node:
        if self.tok[1] != "-":
            return self.atom()
        self.enter(self.advance())
        node = self.neg(self.factor())
        self.depth -= 1
        return node

    def group(self, opener: Token) -> _Node:
        """``expr ")"`` one nesting level below ``opener``."""
        self.enter(opener)
        node = self.expr()
        self.expect(")")
        self.depth -= 1
        return node

    def atom(self) -> _Node:
        tok = self.advance()
        kind, text, offset, value = tok
        if kind == "number":
            return self.number(value)
        if text == "(":
            return self.group(tok)
        if kind == "name":
            if text == "i":
                return self.imaginary()
            if text in FUNC_NAMES:
                self.expect("(")
                return self.func(text, self.group(tok))
            if text in _CONSTANTS:
                return self.const(text)
            raise ParseError(f"unknown name {text!r}", offset, frozenset({"constant", "function"}))
        raise _unexpected(tok, _ATOM_EXPECTED)


def _parse(text: str, build: tuple) -> _Node:
    parser = _Parser(text, build)
    node = parser.expr()
    kind, rest, offset, _ = parser.tok
    if kind != "end":
        raise ParseError(f"trailing input {rest!r}", offset, frozenset({"+", "-", "*", "end"}))
    return node


# -- the reference's builders -------------------------------------------

_BINOP_IMPL = {"+": operator.add, "-": operator.sub, "*": operator.mul}

_AST_BUILD = (Literal, Imaginary, Const, Neg, Func, BinOp)

_VALUE_BUILD = (
    Multivector.scalar,
    lambda: _I,
    _CONSTANTS.__getitem__,
    operator.neg,
    lambda name, child: _FUNC_IMPL[name](child),
    lambda op, left, right: _BINOP_IMPL[op](left, right),
)


def reference_parse(text: str):
    return _parse(text, _AST_BUILD)


def reference_evaluate_text(text: str) -> Multivector:
    """The folded value, before the finiteness check of ``evaluate_text``."""
    return _parse(text, _VALUE_BUILD)
