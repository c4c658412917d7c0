"""The geometric-product kernel over the 8 blade coefficients.

The blade multiplication table is derived once at import by
transposition counting: ``PRODUCT_TABLE[i][j] == (k, sign)`` with
blade_i * blade_j = sign * blade_k.  From that table
:func:`compile_kernel` generates :func:`gp`, one straight-line function
over plain 8-tuples of floats, the technique the GA libraries kingdon
and clifford use for their products.  Nothing here imports numpy.

Pinned summation order: output blade k is ``0.0 +- a_i*b_j +- ...`` over
the pairs (i, j) that land on k, in row-major (i, j) order.  That is the
order in which numpy accumulates a contraction of the two coefficient
vectors with the (8, 8, 8) sign tensor of the table, so products are
bit-identical to that numpy product on finite input (the tests hold them
to it); the leading 0.0 is numpy's zeroed accumulator and fixes the sign
of zero results.  On overflowing input the two differ only in which
non-finite value comes out: numpy gives NaN from its inf*0 terms, the
straight line gives +-inf.
"""

from __future__ import annotations

from typing import Callable

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
BLADE_NAMES: tuple[str, ...] = (
    "e0", "e1", "e2", "e3", "e12", "e23", "e13", "e123",
)
BLADE_INDEX: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(BLADE_TUPLES)}
NAME_INDEX: dict[str, int] = {n: i for i, n in enumerate(BLADE_NAMES)}


def _blade_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Multiply two basis blades; returns (sign, result indices).

    Sign counts the transpositions needed to sort the concatenated index
    list; equal adjacent indices then cancel pairwise (e_i e_i = e0,
    positive signature).
    """
    idx = list(a) + list(b)
    sign = 1
    # bubble sort, counting swaps
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    out: list[int] = []
    for k in idx:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return sign, tuple(out)


def _build_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """T[i][j] = (k, sign) with blade_i * blade_j = sign * blade_k."""
    table = []
    for bi in BLADE_TUPLES:
        row = []
        for bj in BLADE_TUPLES:
            sign, res = _blade_product(bi, bj)
            row.append((BLADE_INDEX[res], sign))
        table.append(tuple(row))
    return tuple(table)


PRODUCT_TABLE = _build_table()


def compile_kernel(
    name: str, vectors: tuple[str, ...], outputs: list[str], scalars: tuple[str, ...] = ()
) -> Callable:
    """Compile the straight-line function ``name(*vectors, *scalars)``.

    Each vector parameter ``v`` is an 8-tuple, unpacked into the locals
    ``v0`` .. ``v7``; scalar parameters are used as they are.
    The function returns the tuple of ``outputs``, Python expressions over
    those locals.  Python evaluates each expression exactly as written,
    left to right, so the source text pins the floating-point summation
    order.
    """
    lines = [f"def {name}({', '.join(vectors + scalars)}):"]
    lines += [f"    {', '.join(f'{v}{i}' for i in range(8))} = {v}" for v in vectors]
    lines += ["    return ("] + [f"        {expr}," for expr in outputs] + ["    )"]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<geobyte kernel {name}>", "exec"), namespace)
    return namespace[name]


def _product_outputs() -> list[str]:
    terms: list[str] = ["0.0"] * 8
    for i, row in enumerate(PRODUCT_TABLE):
        for j, (k, sign) in enumerate(row):
            terms[k] += f" {'+' if sign > 0 else '-'} a{i} * b{j}"
    return terms


#: gp(a, b): geometric product of two 8-tuples of floats, as an 8-tuple
gp = compile_kernel("gp", ("a", "b"), _product_outputs())
