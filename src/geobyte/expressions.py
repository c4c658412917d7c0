"""Expression language for Clifford values: one parser and an evaluator.

There is one grammar and one parser, a single forward pass over the tokens
with a stack of the pending unary minuses, parentheses and calls; one
compiled pattern scans each token, told apart by the group it matched, and
each token is consumed as it is scanned.  The parser builds its result
through node builders chosen by the caller: :func:`parse` passes the AST
classes and returns the tree, while :func:`evaluate_text` passes the
multivector kernels and folds each value, as its rule is reduced, on plain
8-tuples of coefficients, so no tree is built on that path and the result
is wrapped as a :class:`Multivector` once.  The fold trusts its operands
because every one was checked where it entered: a number is finite when the
scanner returns it, and the constants and kernels are the package's own.
Both builders see the same tokens, in the same order, and raise the same
:class:`ParseError` for the same text.  The fold follows the tree's shape
and operand order, and it and :func:`evaluate` apply the same kernels, from
one table, so their values agree bit for bit.  Errors are reported in the
order of the text, as a recursive-descent parser with one token of
lookahead reports them: an error at a token that begins an operand (an
unknown name, an unexpected token, the nesting cap) is raised only after
the token after it has been scanned, so a bad character or a bad number
there is reported first.

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
nest at most MAX_DEPTH levels deep.  Neither the parser, :func:`evaluate`
nor a tree's ``==``, ``hash``, ``repr``, pickling and copying recurse, so
none of them needs such a cap; it stays so that a text over the cap keeps
its error and its offset.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Union

from ._kernels import BLADE_NAMES, gp
from ._record import Record, _walk
from .clusters import LABELS, N1, N2, N3, P1, P2, P3, structure_element
from .errors import DomainError, ParseError, instance, lookup, real
from .multivector import (
    E123 as _I, Multivector, _BASIS, _INVOLUTION_KERNELS, _ZERO, _add, _neg, _sub, _wrap,
)

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
    _ARITY = 1


class Func(Record):
    """Function ``name`` (str) applied to the Expr ``child``."""

    __slots__ = ("name", "child")
    _ARITY = 1


class BinOp(Record):
    """``op`` ("+", "-" or "*") applied to the Exprs ``left`` and ``right``."""

    __slots__ = ("op", "left", "right")
    _ARITY = 2


Expr = Union[Literal, Imaginary, Const, Neg, Func, BinOp]
_Node = Union[Expr, tuple]  # what a parser's builders return


# -- operations and constants ----------------------------------------

#: function name -> the involution it applies
_FUNC_KINDS = {"rev": "reversion", "bar": "grade_involution", "conj": "clifford_conjugation"}
#: function name -> its operation; the fold applies the kernel each calls
_FUNC_IMPL = {name: getattr(Multivector, kind) for name, kind in _FUNC_KINDS.items()}
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
# one token per match, told apart by ``m.lastindex``: a name, an operator
# character, a number (with a denominator, possibly empty), or a character
# no token starts with; no match means the end of the text
_TOKEN = re.compile(
    rf"\s*(?:([A-Za-z][A-Za-z0-9]*)|([-+*()])|({_UNSIGNED})(?:/((?:{_UNSIGNED})?))?|(\S))"
)
_NAME, _OP, _NUMBER, _FRACTION, _BAD = range(1, 6)
_KIND_NAMES = (None, "name", "op", "number", "number", "character")
# what each error site expected
_ATOM_EXPECTED = frozenset({"number", "constant", "i", "function", "("})
_NAME_EXPECTED = frozenset({"constant", "function"})
_DEPTH_EXPECTED = frozenset({"number", "constant", "i"})
_OPEN_EXPECTED = frozenset({"("})
_CLOSE_EXPECTED = frozenset({")"})
_TRAILING_EXPECTED = frozenset({"+", "-", "*", "end"})
_NUMBER_EXPECTED = frozenset({"number"})
_TOKEN_EXPECTED = frozenset({"token"})


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
    """The grammar above as one forward pass over the tokens.  ``build``
    holds the named atoms (constants and i) as a dict, then the builders of
    a number and a negation, the functions as a dict by name, and the
    binary operators as a dict by symbol; a builder must not raise.  A
    unary minus, "(" and a function call each push the pending sum and
    product on ``frames``, so the nesting depth is its length.  A completed
    operand pops its unary minuses and takes the "*" before it at once; a
    pending "+" or "-" waits for the token after the term, and ")" pops its
    group."""
    atoms, number, neg, funcs, binops = build
    add, sub, mul = binops["+"], binops["-"], binops["*"]
    tokens = _TOKEN.finditer(text)  # (\S) makes each match start where the last ended

    def scan(m) -> float | None:
        """The value of the token ``m`` if it is a number, None for any other
        token or none; the :class:`ParseError` of a bad character or number.
        An error at a token that begins an operand first scans the token
        after it, so that one's own error comes first, in text order."""
        if m is None or m.lastindex < _NUMBER:
            return None
        if m.lastindex == _BAD:
            raise _error(text, m, _TOKEN_EXPECTED, "unexpected character {1!r}")
        value = float(m[_NUMBER])
        if m.lastindex == _FRACTION:
            if not m[_FRACTION]:
                raise ParseError("expected denominator", m.start(_FRACTION), _NUMBER_EXPECTED)
            if float(m[_FRACTION]) == 0.0:
                raise ParseError("division by zero", m.start(_NUMBER), _NUMBER_EXPECTED)
            value /= float(m[_FRACTION])
        if not math.isfinite(value):
            raise ParseError("number is not finite", m.start(_NUMBER), _NUMBER_EXPECTED)
        return value

    frames = []  # (closer, sum, its operator, product); a unary minus's closer is neg
    acc = acc_op = prod = val = None
    operand = True  # whether the next token begins an operand
    for m in tokens:
        kind = m.lastindex
        if operand:
            if kind == _NAME:
                name = m[_NAME]
                val = atoms.get(name)
                if val is None:  # a function name, whose "(" opens its frame
                    closer = funcs.get(name)
                    if closer is None:
                        scan(next(tokens, None))
                        raise _error(text, m, _NAME_EXPECTED, "unknown name {1!r}")
                    opener, m = m, next(tokens, None)
                    scan(m)
                    if m is None or m[_OP] != "(":
                        raise _error(text, m, _OPEN_EXPECTED)
            elif kind != _OP:
                val = number(scan(m))
            else:
                op = m[_OP]
                if op == "(":
                    closer = None
                elif op == "-":
                    closer = neg
                else:
                    scan(next(tokens, None))
                    raise _error(text, m, _ATOM_EXPECTED)
                opener, val = m, None
            if val is None:
                frames.append((closer, acc, acc_op, prod))
                if len(frames) > MAX_DEPTH:
                    scan(next(tokens, None))
                    message = f"nesting deeper than {MAX_DEPTH} levels"
                    raise _error(text, opener, _DEPTH_EXPECTED, message)
                acc = prod = None
                continue
        else:  # the token after an operand
            op = m[_OP]
            if op == "*":
                prod, operand = val, True
                continue
            if acc is not None:
                val = acc_op(acc, val)
                acc = None
            if op == "+" or op == "-":
                acc, acc_op, operand = val, (add if op == "+" else sub), True
                continue
            if op != ")" or not frames:
                scan(m)
                if frames:
                    raise _error(text, m, _CLOSE_EXPECTED)
                raise _error(text, m, _TRAILING_EXPECTED, "trailing input {1!r}")
            closer, acc, acc_op, prod = frames.pop()
            if closer is not None:
                val = closer(val)
        # ``val`` completes an operand
        while frames and frames[-1][0] is neg:
            _, acc, acc_op, prod = frames.pop()
            val = neg(val)
        if prod is not None:
            val = mul(prod, val)
            prod = None
        operand = False
    if operand:
        raise _error(text, None, _ATOM_EXPECTED)
    if acc is not None:
        val = acc_op(acc, val)
    if frames:
        raise _error(text, None, _CLOSE_EXPECTED)
    return val


_ZEROS = _ZERO[1:]


def _scalar(x: float) -> tuple[float, ...]:
    """The coefficients of the scalar ``x``, a float already read."""
    return (x,) + _ZEROS


# the parser's builders of a tree, and of the coefficients of the value
# that tree evaluates to: the kernels the Multivector operations call
_AST_BUILD = (
    {**{name: Const(name) for name in _CONSTANTS}, "i": Imaginary()}, Literal, Neg,
    {name: functools.partial(Func, name) for name in _FUNC_IMPL},
    {op: functools.partial(BinOp, op) for op in "+-*"},
)
_VALUE_BUILD = (
    {"i": _I._c, **{name: m._c for name, m in _CONSTANTS.items()}}, _scalar, _neg,
    {name: _INVOLUTION_KERNELS[kind] for name, kind in _FUNC_KINDS.items()},
    {"+": _add, "-": _sub, "*": gp},
)


def parse(text: str) -> Expr:
    """Parse an expression; raises :class:`ParseError` with byte offset."""
    return _parse(text, _AST_BUILD)


def evaluate(e: Expr) -> Multivector:
    """Bottom-up evaluation to a multivector; i is the pseudoscalar.

    One post-order walk (:func:`_walk`), so a tree of any depth or chain
    length costs no recursion depth.  Each binary operator takes its left
    value, then its right, as a recursive walk would.  A literal's value
    is read by :func:`geobyte.errors.real`, as :meth:`Multivector.scalar`
    reads it.
    """
    atoms, number, neg, funcs, binops = _VALUE_BUILD
    values = []
    for node in reversed(_walk(e)):  # post-order: left, right, then the node
        if isinstance(node, BinOp):
            right = values.pop()
            values[-1] = lookup(binops, node.op, "unknown operator")(values[-1], right)
        elif isinstance(node, Neg):
            values[-1] = neg(values[-1])
        elif isinstance(node, Func):
            values[-1] = lookup(funcs, node.name, "unknown function")(values[-1])
        elif isinstance(node, Literal):
            values.append(number(real(node.value, "a scalar must be a real number")))
        elif isinstance(node, Imaginary):
            values.append(atoms["i"])
        elif isinstance(node, Const):
            values.append(lookup(_CONSTANTS, node.name, "unknown constant")._c)
        else:
            raise TypeError(f"e must be a tree of expression nodes, got {node!r}")
    return _wrap(values[0])


def evaluate_text(text: str) -> Multivector:
    """The value of ``evaluate(parse(text))``, folded while parsing;
    :class:`DomainError` if the value overflowed."""
    m = _wrap(_parse(text, _VALUE_BUILD))
    if not all(map(math.isfinite, m._c)):
        raise DomainError(f"expression value is not finite: {m!r}")
    return m


def format_expression(m: Multivector) -> str:
    """Render a multivector in re-parseable expression syntax."""
    parts: list[tuple[str, str]] = []
    for name, v in zip(BLADE_NAMES, instance(m, Multivector, "m")._c):
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
