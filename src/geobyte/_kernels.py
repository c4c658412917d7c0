"""The blade basis of G(3,0) and the product kernels over its coefficients.

The basis is :data:`BLADE_TUPLES`, each blade's vector indices in storage
order; :data:`BLADE_NAMES` and :data:`BLADE_GRADES` are derived from it
here, once, and :data:`INVOLUTIONS` names the grades each involution
negates.  The blade multiplication table is derived at
import by counting inversions: ``PRODUCT_TABLE[i][j] == (k, sign)`` with
blade_i * blade_j = sign * blade_k.  Every product kernel is a partial
evaluation of that one table, compiled by :func:`compile_kernel` into a
straight-line function over plain 8-tuples of floats, the technique the
GA libraries kingdon and clifford use for their products.  An operand is
a variable ``(prefix, negated grades)``, whose sign flips are folded into
the generated ``+``/``-``, or a constant 8-tuple, whose zero coefficients
drop their terms and whose unit coefficients drop their multiplication.
:func:`product` generates one product, :data:`gp` among them, and
:func:`sandwich` two, keeping the first in locals.  Nothing here imports
numpy.

Pinned summation order: output blade k is ``0.0 +- a_i*b_j +- ...`` over
the pairs (i, j) that land on k, in row-major (i, j) order.  That is the
order in which numpy accumulates a contraction of the two coefficient
vectors with the (8, 8, 8) sign tensor of the table, so :data:`gp` is
bit-identical to that numpy product on finite input (the tests hold it
to it); the leading 0.0 is numpy's zeroed accumulator and fixes the sign
of zero results.  On overflowing input the two differ only in which
non-finite value comes out: numpy gives NaN from its inf*0 terms, the
straight line gives +-inf.

Exactness, stated once.  A generated kernel computes the same value as
the route through :data:`gp` and the involutions, bit for bit, because:

- a negation is exact, and ``a - b`` is ``a + (-b)``, so a sign flip
  folded into the sum changes nothing;
- a left-to-right sum that starts at ``+0.0`` is unchanged by an exact
  ``+-0.0`` term, because it can never become ``-0.0``
  (``+0.0 + -0.0`` and ``x - x`` are ``+0.0``), so a term on a zero
  constant may go;
- ``x * 1.0 == x``, so a unit constant may go.

So a kernel with no constant operand (the sandwiches) is bit-identical
to its route on every input, inf and NaN included, except for a NaN's
sign, which CPython fixes for no route: its own ``x + y`` gives NaN + NaN
either sign, depending on whether the interpreter has specialised the
instruction.  A kernel with a constant operand differs from :data:`gp`
only on non-finite input, where it forms no inf*0 NaN.  Variable
operands never drop terms: a coefficient that is zero in theory (the odd
blades of a quaternion, which a public ``Quaternion`` may carry up to
1e-12) is still multiplied.
"""

from __future__ import annotations

from typing import Callable, Union

# Blade storage order is fixed once, everywhere: scalar, the three
# vectors, then e12, e23, e13 (note e23 before e13), then the pseudoscalar.
BLADE_TUPLES: tuple[tuple[int, ...], ...] = (
    (),
    (1,),
    (2,),
    (3,),
    (1, 2),
    (2, 3),
    (1, 3),
    (1, 2, 3),
)
#: each blade's name, "e" and its indices ("e0" for the scalar), and grade
BLADE_NAMES: tuple[str, ...] = tuple("e" + ("".join(map(str, t)) or "0") for t in BLADE_TUPLES)
BLADE_GRADES: tuple[int, ...] = tuple(map(len, BLADE_TUPLES))
#: involution -> the grades it negates: a k-blade's reversion makes k(k-1)/2
#: swaps, its grade involution k sign flips, its Clifford conjugation both
INVOLUTIONS: dict[str, tuple[int, ...]] = {
    "reversion": (2, 3), "grade_involution": (1, 3), "clifford_conjugation": (1, 2)
}
BLADE_INDEX: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(BLADE_TUPLES)}
NAME_INDEX: dict[str, int] = {n: i for i, n in enumerate(BLADE_NAMES)}


def _blade_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Multiply two basis blades; returns (sign, result indices).

    Sorting the concatenated indices swaps each pair i > j with i from
    ``a`` and j from ``b`` once; equal indices then cancel (e_i e_i = e0,
    positive signature), leaving the symmetric difference.
    """
    return (-1) ** sum(i > j for i in a for j in b), tuple(sorted(set(a) ^ set(b)))


#: PRODUCT_TABLE[i][j] == (k, sign) with blade_i * blade_j = sign * blade_k
PRODUCT_TABLE: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple((BLADE_INDEX[res], sign) for sign, res in (_blade_product(a, b) for b in BLADE_TUPLES))
    for a in BLADE_TUPLES
)


def compile_kernel(
    name: str,
    vectors: tuple[str, ...],
    outputs: list[str],
    scalars: tuple[str, ...] = (),
    lets: tuple[str, ...] = (),
) -> Callable:
    """Compile the straight-line function ``name(*vectors, *scalars)``.

    Each vector parameter ``v`` is an 8-tuple, unpacked into the locals
    ``v0`` .. ``v7``; scalar parameters are used as they are.  The
    assignments ``lets`` run next, in order, and the function returns the
    tuple of ``outputs``, Python expressions over all those locals.
    Python evaluates each expression exactly as written, left to right, so
    the source text pins the floating-point summation order.
    """
    lines = [f"def {name}({', '.join(vectors + scalars)}):"]
    lines += [f"    {', '.join(f'{v}{i}' for i in range(8))} = {v}" for v in vectors]
    lines += [f"    {let}" for let in lets]
    lines += ["    return ("] + [f"        {expr}," for expr in outputs] + ["    )"]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<geobyte kernel {name}>", "exec"), namespace)
    return namespace[name]


#: an operand of a generated product: a variable ``(prefix, negated
#: grades)`` or a constant 8-tuple of floats
Operand = Union[tuple[str, tuple[int, ...]], tuple[float, ...]]


def _factors(operand: Operand) -> list[tuple[int, str] | None]:
    """Per blade of ``operand``: None for a zero constant, else (sign,
    source), where the source of a unit constant is empty."""
    if isinstance(operand[0], str):
        prefix, negated = operand
        return [(-1 if g in negated else 1, f"{prefix}{i}") for i, g in enumerate(BLADE_GRADES)]
    return [
        None if c == 0 else (1 if c > 0 else -1, "" if abs(c) == 1 else repr(abs(c)))
        for c in operand
    ]


def _product_outputs(left: Operand, right: Operand) -> list[str]:
    """The eight output expressions of left * right, in the pinned order."""
    lf, rf = _factors(left), _factors(right)
    terms = ["0.0"] * 8
    for i, row in enumerate(PRODUCT_TABLE):
        for j, (k, sign) in enumerate(row):
            if lf[i] and rf[j]:
                (ls, a), (rs, b) = lf[i], rf[j]
                term = " * ".join(filter(None, (a, b))) or "1.0"
                terms[k] += f" {'+' if sign * ls * rs > 0 else '-'} {term}"
    return terms


def _parameters(*operands: Operand) -> tuple[str, ...]:
    """The variable operands' prefixes, each once, in order."""
    return tuple(dict.fromkeys(op[0] for op in operands if isinstance(op[0], str)))


def product(name: str, left: Operand, right: Operand) -> Callable:
    """Kernel of left * right, taking the variable operands' 8-tuples."""
    return compile_kernel(name, _parameters(left, right), _product_outputs(left, right))


def sandwich(name: str, left: Operand, middle: Operand, right: Operand) -> Callable:
    """Kernel of (left * middle) * right, the first product kept in the
    locals ``t0`` .. ``t7`` (so no operand may have the prefix ``t``)."""
    lets = tuple(f"t{k} = {expr}" for k, expr in enumerate(_product_outputs(left, middle)))
    outputs = _product_outputs(("t", ()), right)
    return compile_kernel(name, _parameters(left, middle, right), outputs, lets=lets)


#: gp(a, b): geometric product of two 8-tuples of floats, as an 8-tuple
gp = product("gp", ("a", ()), ("b", ()))
