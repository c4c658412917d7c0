"""Expression language for Clifford values: one parser and an evaluator.

There is one grammar and one parser, a single loop over the tokens with a
stack of the pending unary minuses, parentheses and calls; one compiled
pattern scans each token, told apart by the group it matched.  The parser
builds its result through node builders chosen by the caller:
:func:`parse` passes the AST classes and returns the tree, while
:func:`evaluate_text` passes multivector operations and folds each value
as its rule is reduced, so no tree is built on that path.  Both see the
same tokens, in the same order, and raise the same :class:`ParseError`
for the same text.  The fold follows the tree's shape and operand order,
and it and :func:`evaluate` apply the same operations, from one table each
for functions, operators and constants, so their values agree bit for
bit.  Tokens are scanned one ahead of the parse, as a recursive-descent
parser would, so a bad character, a bad number and the nesting cap are
reported in the order of the text.

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
nest at most MAX_DEPTH levels deep.  Neither the parser's loop nor
:func:`evaluate` needs such a cap.  It stays so that a text over the cap
keeps its error and its offset, and because ``==``, ``hash`` and ``repr``
of a tree (the generic :class:`Record` methods) still recurse into every
nested node.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Union

from ._kernels import BLADE_NAMES
from ._record import Record
from .clusters import LABELS, N1, N2, N3, P1, P2, P3, structure_element
from .errors import DomainError, ParseError, lookup
from .multivector import E123 as _I, Multivector, _BASIS

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

# -- operations and constants ----------------------------------------

#: function name -> its operation
_FUNC_IMPL = {
    "rev": Multivector.reversion,
    "bar": Multivector.grade_involution,
    "conj": Multivector.clifford_conjugation,
}
#: binary operator -> its operation
_BINOP_IMPL = {"+": operator.add, "-": operator.sub, "*": operator.mul}
#: constant name -> its value, read from the modules that derive them
_CONSTANTS: dict[str, Multivector] = {
    **dict(zip(BLADE_NAMES, _BASIS)),
    "P1": P1, "N1": N1, "P2": P2, "N2": N2, "P3": P3, "N3": N3,
    **{label: structure_element(label) for label in LABELS},
}

FUNC_NAMES = tuple(_FUNC_IMPL)

#: deepest nesting of "(", function calls and unary "-" that parses
MAX_DEPTH = 100


# -- tokens ------------------------------------------------------------

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# one token per match, told apart by ``m.lastindex``: a name, one of the
# five operators, a number (with a denominator, possibly empty), or a
# character no token starts with; no match means the end of the text
_TOKEN = re.compile(
    r"\s*(?:([A-Za-z][A-Za-z0-9]*)|(\+)|(-)|(\*)|(\()|(\))"
    rf"|({_UNSIGNED})(?:/((?:{_UNSIGNED})?))?|(\S))"
)
_END, _NAME, _ADD, _SUB, _MUL, _OPEN, _CLOSE, _NUMBER, _FRACTION, _BAD = range(10)
_KIND_NAMES = ("end", "name", "op", "op", "op", "op", "op", "number", "number", "character")
_NUMBER_EXPECTED = frozenset({"number"})


def _error(text: str, m, expected: frozenset[str], message: str = "unexpected {} {!r}") -> ParseError:
    """The error at the token that ``m`` matched, ``message`` formatted with
    the token's kind and text; at the end of ``text`` (``m`` None) it is
    "unexpected end of input"."""
    if m is None:
        return ParseError("unexpected end of input", len(text), expected)
    kind = m.lastindex
    offset = m.start(_NUMBER if kind == _FRACTION else kind)
    return ParseError(message.format(_KIND_NAMES[kind], text[offset : m.end()]), offset, expected)


# -- parser ------------------------------------------------------------


def _parse(text: str, build: tuple) -> _Node:
    """The grammar above as one loop over the tokens.  ``build`` holds the
    named atoms (constants and i) as a dict, then the builders of a number
    and a negation, the functions as a dict by name, and the binary
    operators as a dict by symbol; a builder must not raise.  Each pass
    consumes one token and scans the next.  A unary minus, "(" and a
    function call each push the pending sum and product on ``frames``, so
    the nesting depth is its length.  A completed operand pops its unary
    minuses and takes the "*" before it at once; a pending "+" or "-"
    waits for the term after it, and ")" pops its group."""
    atoms, number, neg, funcs, binops = build
    add, sub, mul = binops["+"], binops["-"], binops["*"]
    tokens = _TOKEN.finditer(text)  # (\S) makes each match start where the last ended
    frames = []  # (closer, sum, its operator, product); a unary minus's closer is neg
    acc = acc_op = prod = closer = val = m = value = None
    kind, operand = _ADD, False  # as if after a "+" before the text
    while True:
        cur, cur_m, cur_value = kind, m, value
        m = next(tokens, None)
        kind = _END if m is None else m.lastindex
        if kind >= _NUMBER:
            if kind == _BAD:
                raise _error(text, m, frozenset({"token"}), "unexpected character {1!r}")
            value = float(m[_NUMBER])
            if kind == _FRACTION:
                if not m[_FRACTION]:
                    raise ParseError("expected denominator", m.start(_FRACTION), _NUMBER_EXPECTED)
                if float(m[_FRACTION]) == 0.0:
                    raise ParseError("division by zero", m.start(_NUMBER), _NUMBER_EXPECTED)
                value /= float(m[_FRACTION])
            if not math.isfinite(value):
                raise ParseError("number is not finite", m.start(_NUMBER), _NUMBER_EXPECTED)
        # consume ``cur``; ``kind`` is the token after it
        if operand:
            if cur == _NAME:
                name = cur_m[_NAME]
                val = atoms.get(name)
                if val is None:
                    if name not in funcs:
                        raise _error(text, cur_m, frozenset({"constant", "function"}), "unknown name {1!r}")
                    if kind != _OPEN:
                        raise _error(text, m, frozenset({"("}))
                    closer, opener = funcs[name], cur_m
                    continue
            elif cur >= _NUMBER:
                val = number(cur_value)
            elif cur == _OPEN or cur == _SUB:
                frames.append((neg if cur == _SUB else closer, acc, acc_op, prod))
                if len(frames) > MAX_DEPTH:
                    at = cur_m if closer is None else opener
                    message = f"nesting deeper than {MAX_DEPTH} levels"
                    raise _error(text, at, frozenset({"number", "constant", "i"}), message)
                acc = prod = closer = None
                continue
            else:
                raise _error(text, cur_m, frozenset({"number", "constant", "i", "function", "("}))
        elif cur == _CLOSE:
            fn, acc, acc_op, prod = frames.pop()
            if fn is not None:
                val = fn(val)
        else:  # "+", "-" or "*", settled before it was consumed
            operand = True
            continue
        # ``val`` completes an operand
        while frames and frames[-1][0] is neg:
            _, acc, acc_op, prod = frames.pop()
            val = neg(val)
        if prod is not None:
            val = mul(prod, val)
            prod = None
        operand = False
        # settle the operator ``kind`` before it is consumed
        if kind == _MUL:
            prod = val
            continue
        if acc is not None:
            val = acc_op(acc, val)
            acc = None
        if kind == _ADD or kind == _SUB:
            acc, acc_op = val, (add if kind == _ADD else sub)
        elif frames:
            if kind != _CLOSE:
                raise _error(text, m, frozenset({")"}))
        elif kind == _END:
            return val
        else:
            raise _error(text, m, frozenset({"+", "-", "*", "end"}), "trailing input {1!r}")


# the parser's builders of a tree, and of the value that tree evaluates to
_AST_BUILD = (
    {**{name: Const(name) for name in _CONSTANTS}, "i": Imaginary()}, Literal, Neg,
    {name: functools.partial(Func, name) for name in _FUNC_IMPL},
    {op: functools.partial(BinOp, op) for op in _BINOP_IMPL},
)
_VALUE_BUILD = ({"i": _I, **_CONSTANTS}, Multivector.scalar, operator.neg, _FUNC_IMPL, _BINOP_IMPL)


def parse(text: str) -> Expr:
    """Parse an expression; raises :class:`ParseError` with byte offset."""
    return _parse(text, _AST_BUILD)


def evaluate(e: Expr) -> Multivector:
    """Bottom-up evaluation to a multivector; i is the pseudoscalar.

    One post-order walk with an explicit stack, so a tree of any depth or
    chain length costs no recursion depth.  Each binary operator takes
    its left value, then its right, as a recursive walk would.
    """
    nodes, todo = [], [e]  # ``nodes`` in pre-order, right subtree first
    while todo:
        node = todo.pop()
        nodes.append(node)
        if isinstance(node, BinOp):
            todo += (node.left, node.right)
        elif isinstance(node, (Neg, Func)):
            todo.append(node.child)
    atoms, number, neg, funcs, binops = _VALUE_BUILD
    values = []
    for node in reversed(nodes):  # post-order: left, right, then the node
        if isinstance(node, BinOp):
            right = values.pop()
            values[-1] = lookup(binops, node.op, "unknown operator")(values[-1], right)
        elif isinstance(node, Neg):
            values[-1] = neg(values[-1])
        elif isinstance(node, Func):
            values[-1] = lookup(funcs, node.name, "unknown function")(values[-1])
        elif isinstance(node, Literal):
            values.append(number(node.value))
        elif isinstance(node, Imaginary):
            values.append(atoms["i"])
        elif isinstance(node, Const):
            values.append(lookup(_CONSTANTS, node.name, "unknown constant"))
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return values[0]


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
    for name, v in zip(BLADE_NAMES, m._c):
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
