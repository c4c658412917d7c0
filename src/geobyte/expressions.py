"""Expression language for Clifford values: one recursive-descent parser
and an evaluator.

There is one grammar and one parser.  It builds its result through six
node builders chosen by the caller: :func:`parse` passes the AST classes
and returns the tree, while :func:`evaluate_text` passes multivector
operations and folds each rule's value as the rule is reduced, so no tree
is built on that path.  Both see the same tokens, in the same order, and
raise the same :class:`ParseError` for the same text; the values agree
bit for bit with :func:`evaluate` of the tree, whose shape and operand
order they follow.

Grammar (products need an explicit '*'; "e12" is a single token):

    expr    := term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := "-" factor | atom
    atom    := NUMBER | "i" | CONST | FUNC "(" expr ")" | "(" expr ")"
    FUNC    := "rev" | "bar" | "conj"
    NUMBER  := UNSIGNED ("/" UNSIGNED)?
    UNSIGNED:= digits with optional "." fraction, then optional exponent
               ("e"|"E") ("+"|"-")? digits
    NAME    := a letter followed by letters or digits

A number written with an exponent is one token, so "2e12" is the number
2e12; write "2*e12" for twice the blade.  A NUMBER must be finite and its
denominator nonzero.  Parentheses, function calls and unary minus together
nest at most MAX_DEPTH levels deep, which keeps parsing and evaluation
well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterator, Union

from ._kernels import BLADE_NAMES
from ._record import Record
from .clusters import LABELS, paravector, structure_element
from .errors import DomainError, ParseError
from .multivector import Multivector

# -- AST ---------------------------------------------------------------


class Literal(Record):
    """A number; ``value`` is a float."""

    __slots__ = ("value",)


class Imaginary(Record):
    __slots__ = ()


class Const(Record):
    """A named constant; ``name`` is a str."""

    __slots__ = ("name",)


class Neg(Record):
    """Negation of the Expr ``child``."""

    __slots__ = ("child",)


class Func(Record):
    """Function ``name`` (str) applied to the Expr ``child``."""

    __slots__ = ("name", "child")


class BinOp(Record):
    """``op`` ("+", "-" or "*") applied to the Exprs ``left`` and ``right``."""

    __slots__ = ("op", "left", "right")


Expr = Union[Literal, Imaginary, Const, Neg, Func, BinOp]
_Node = Union[Expr, Multivector]  # what a parser's builders return

FUNC_NAMES = ("rev", "bar", "conj")

_CONSTANTS: dict[str, Multivector] = {}
for _n in BLADE_NAMES:
    _CONSTANTS[_n] = Multivector.basis(_n)
for _axis in (1, 2, 3):
    _CONSTANTS[f"P{_axis}"] = paravector(_axis, "positive").value
    _CONSTANTS[f"N{_axis}"] = paravector(_axis, "negative").value
for _label in LABELS:
    _CONSTANTS[_label] = structure_element(_label)

CONST_NAMES = tuple(_CONSTANTS)

#: deepest nesting of "(", function calls and unary "-" that parses
MAX_DEPTH = 100


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


_AST_BUILD = (Literal, Imaginary, Const, Neg, Func, BinOp)


def parse(text: str) -> Expr:
    """Parse an expression; raises :class:`ParseError` with byte offset."""
    return _parse(text, _AST_BUILD)


_FUNC_IMPL = {
    "rev": Multivector.reversion,
    "bar": Multivector.grade_involution,
    "conj": Multivector.clifford_conjugation,
}

_BINOP_IMPL = {"+": operator.add, "-": operator.sub, "*": operator.mul}

_I = Multivector.basis("e123")

# the operations :func:`evaluate` applies to each node, as parser builders
_VALUE_BUILD = (
    Multivector.scalar,
    lambda: _I,
    _CONSTANTS.__getitem__,
    operator.neg,
    lambda name, child: _FUNC_IMPL[name](child),
    lambda op, left, right: _BINOP_IMPL[op](left, right),
)


def evaluate(e: Expr) -> Multivector:
    """Bottom-up evaluation to a multivector; i is the pseudoscalar.

    The left spine of a binary-operator chain is walked with a loop, so a
    long sum or product costs no recursion depth.
    """
    chain = []
    while isinstance(e, BinOp):
        chain.append(e)
        e = e.left
    if isinstance(e, Literal):
        value = Multivector.scalar(e.value)
    elif isinstance(e, Imaginary):
        value = _I
    elif isinstance(e, Const):
        value = _CONSTANTS[e.name]
    elif isinstance(e, Neg):
        value = -evaluate(e.child)
    elif isinstance(e, Func):
        value = _FUNC_IMPL[e.name](evaluate(e.child))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    for node in reversed(chain):
        value = _BINOP_IMPL[node.op](value, evaluate(node.right))
    return value


def evaluate_text(text: str) -> Multivector:
    """The value of ``evaluate(parse(text))``, folded while parsing;
    :class:`DomainError` if the value overflowed."""
    m = _parse(text, _VALUE_BUILD)
    if not all(map(math.isfinite, m._c)):
        raise DomainError(f"expression value is not finite: {m!r}")
    return m


def format_expression(m: Multivector) -> str:
    """Render a multivector in re-parseable expression syntax."""
    parts: list[tuple[str, str]] = []
    for name in BLADE_NAMES:
        v = m[name]
        if v == 0.0:
            continue
        sign = "-" if v < 0 else "+"
        parts.append((sign, f"{abs(v)!r}*{name}"))
    if not parts:
        return "0*e0"
    first_sign, first = parts[0]
    out = (first_sign if first_sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out
