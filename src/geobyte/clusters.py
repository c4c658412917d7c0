"""The geometric byte: idempotent paravectors, the eight structure
elements, byte signatures, unit-cube coordinates and the two diagonal
4D bases.

Every table here is computed from the definitions, never transcribed from
printed expansions; printed rows are asserted in the test suite instead.
One ordered product, :func:`_ordered`, builds the structure elements and
the byte-signature blades.  One reader, :func:`_signed_unit`, reads every
table read off a product, here and in transforms.

The changes of basis are fixed +-1 matrices, so each is generated from
its matrix as a straight-line kernel (:func:`geobyte._kernels.compile_kernel`)
whose source text pins the summation order:

* structure coordinates sum each row's signed terms t_b = +-c_b as
  ``0.0 + (((t0+t4) + (t2+t6)) + ((t1+t5) + (t3+t7)))``, the pairing in
  which numpy's matrix-vector product ``SIGN_MATRIX @ coeffs`` added them
  onto its zeroed accumulator, so the coordinates are bit-identical to
  that product, signed zeros included (a left-to-right sum is not: it
  differs in the last bit on most dense inputs);
* the inverse map uses the same pairing over the columns.  It is exact
  on dyadic input and otherwise agrees with ``v @ SIGN_MATRIX / 8`` to
  the rounding of its inputs; no order reproduces numpy's there;
* diagonal coefficients sum the four signed terms left to right onto a
  0.0 accumulator, which is what numpy's 4x4 product gave, signed zeros
  included.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Literal, Sequence

from ._kernels import BLADE_NAMES, compile_kernel
from ._record import Record, _set
from .errors import (
    DomainError, SpanError, UnknownBladeError, UnknownLabelError, instance, lookup, read_json,
    read_numbers, reals, require_finite, tolerance,
)
from .multivector import E0, Multivector, _wrap

Polarity = Literal["positive", "negative"]

#: label -> polarity (+1 for P_i, -1 for N_i) of the paravector factor on
#: axes 1, 2, 3, in definition order.  A is the all-positive corner; an
#: overline (spelled "bar") swaps every factor's polarity.  The same triples
#: are the labels' octants on the unit cube.
POLARITIES: dict[str, tuple[int, int, int]] = {
    "A": (1, 1, 1),
    "B": (-1, 1, 1),
    "C": (1, -1, 1),
    "D": (1, 1, -1),
    "Dbar": (-1, -1, 1),
    "Cbar": (-1, 1, -1),
    "Bbar": (1, -1, -1),
    "Abar": (-1, -1, -1),
}

#: structure element labels in definition order
LABELS: tuple[str, ...] = tuple(POLARITIES)
LABEL_INDEX: dict[str, int] = {l: i for i, l in enumerate(LABELS)}
#: polarity -> the sign of e_axis in its paravector
_POLARITY_SIGNS: dict[str, float] = {"positive": 1.0, "negative": -1.0}


class Paravector(Record):
    """Idempotent half-sum/half-difference ``value`` (Multivector) of e0
    and the basis vector ``axis`` (int); ``polarity`` is a Polarity."""

    __slots__ = ("axis", "polarity", "value")


def paravector(axis: int, polarity: Polarity) -> Paravector:
    """P_axis = (e0 + e_axis)/2 or N_axis = (e0 - e_axis)/2.

    ``axis`` is an integer (any type with ``__index__``, stored as int)."""
    try:
        axis = operator.index(axis)
    except TypeError:
        raise DomainError(f"paravector axis must be 1..3, got {axis!r}") from None
    if axis not in (1, 2, 3):
        raise DomainError(f"paravector axis must be 1..3, got {axis}")
    sign = lookup(_POLARITY_SIGNS, polarity, "bad polarity")
    value = (E0 + sign * Multivector.basis(f"e{axis}")) * 0.5
    return Paravector(axis, polarity, value)


_PAIRS = tuple((paravector(a, "positive").value, paravector(a, "negative").value) for a in (1, 2, 3))
(P1, N1), (P2, N2), (P3, N3) = _PAIRS
#: the factors of a byte signature's blade, (P_i + N_i, P_i - N_i) per axis
_SIGNED_PAIRS = tuple((p + n, p - n) for p, n in _PAIRS)


def _ordered(pairs, bits: tuple[int, int, int]) -> Multivector:
    """One factor per axis, the first of its pair where its bit is +1 and
    the second where it is -1, multiplied in axis order."""
    f1, f2, f3 = (p if s > 0 else n for (p, n), s in zip(pairs, bits))
    return f1 * f2 * f3


def _signed_unit(c: Sequence[float]) -> tuple[int, int]:
    """(index, sign) of the single nonzero entry of ``c``, which must be
    +1 or -1; :class:`AssertionError` for any other vector."""
    hot = [i for i, x in enumerate(c) if x != 0.0]
    if len(hot) != 1 or abs(c[hot[0]]) != 1.0:
        raise AssertionError(f"not a signed unit vector: {tuple(c)!r}")
    return hot[0], int(c[hot[0]])


def _sign_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as integers, checked to be Hadamard-type: every entry +-1,
    and R @ R.T = n I for rows of length n."""
    if any(abs(x) != 1.0 for row in rows for x in row):
        raise AssertionError(f"{what} is not a +-1 sign pattern")
    h = tuple(tuple(int(x) for x in row) for row in rows)
    if any(sum(map(int.__mul__, r, t)) != len(r) * (i == j)
           for i, r in enumerate(h) for j, t in enumerate(h)):
        raise AssertionError(f"{what} is not Hadamard-type")
    return h


_STRUCTURE: dict[str, Multivector] = {
    label: _ordered(_PAIRS, polarity) for label, polarity in POLARITIES.items()
}


def structure_element(label: str) -> Multivector:
    """One of the eight structure elements A..Abar.

    They sum to e0 and are absorbed or annihilated one-sidedly by P3/N3,
    but they are not idempotents: every product S_a * S_b, squares
    included, is z * S_c with z in {(+-1 +- i)/4}, i realized as e123,
    where S_c has the first polarity of a and the last polarity of b
    (the middle one taken from a), as in POLARITIES.
    """
    return lookup(_STRUCTURE, label, "unknown structure element")


#: H[label][blade] = +-1 with structure_element(label) = (1/8) sum H[l][b] e_b;
#: H @ H.T = 8 I makes the change of basis exactly invertible in floating point
SIGN_MATRIX = _sign_rows([[8.0 * x for x in _STRUCTURE[l]._c] for l in LABELS], "sign matrix")

#: pairing of a row's eight signed terms, outermost brackets first
_PAIRING = (((0, 4), (2, 6)), ((1, 5), (3, 7)))


def _pairwise_sum(signs: Sequence[int], var: str) -> str:
    """Source of sum_b signs[b] * var_b, bracketed as :data:`_PAIRING`
    and added onto 0.0."""

    def pair(i: int, j: int) -> str:
        first = f"-{var}{i}" if signs[i] < 0 else f"{var}{i}"
        return f"({first} {'-' if signs[j] < 0 else '+'} {var}{j})"

    (p, q), (r, t) = _PAIRING
    return f"0.0 + (({pair(*p)} + {pair(*q)}) + ({pair(*r)} + {pair(*t)}))"


_to_structure = compile_kernel(
    "to_structure", ("c",), [_pairwise_sum(row, "c") for row in SIGN_MATRIX]
)
_from_structure = compile_kernel(
    "from_structure", ("v",), [f"({_pairwise_sum(col, 'v')}) * 0.125" for col in zip(*SIGN_MATRIX)]
)


class StructureCoords(Record):
    """Coordinates of a multivector over the eight structure elements,
    in label order A, B, C, D, Dbar, Cbar, Bbar, Abar."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        _set(self, "values", reals(values, "StructureCoords needs 8 values", 8))

    def __getitem__(self, label: str) -> float:
        """The coordinate of a label; :class:`UnknownLabelError` for any
        other name."""
        return self.values[lookup(LABEL_INDEX, label, "unknown structure label", UnknownLabelError)]

    def to_json(self) -> dict[str, float]:
        """Label -> coordinate; :class:`DomainError` if any is NaN or infinite."""
        values = require_finite(self.values, "structure coordinates must be finite")
        return dict(zip(LABELS, values))

    @classmethod
    def from_json(cls, obj: dict[str, float]) -> "StructureCoords":
        values = read_json(obj, LABELS, "structure coords")
        return cls._trusted(read_numbers(values, "structure coordinates must be finite numbers"))


def to_structure_coords(m: Multivector) -> StructureCoords:
    """Unique coordinates of ``m`` over the structure elements (exact)."""
    return StructureCoords._trusted(_to_structure(instance(m, Multivector, "m")._c))


def from_structure_coords(c: StructureCoords) -> Multivector:
    """Exact inverse of :func:`to_structure_coords`."""
    return _wrap(_from_structure(instance(c, StructureCoords, "c").values))


class ByteSignature(Record):
    """The {+,-,+}-style three-bit state naming one basis blade; ints."""

    __slots__ = ("s1", "s2", "s3")

    def __post_init__(self):
        for s in (self.s1, self.s2, self.s3):
            if s not in (1, -1):
                raise DomainError(f"signature components must be +1 or -1, got {s!r}")

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in (self.s1, self.s2, self.s3))

    @classmethod
    def parse(cls, text: str) -> "ByteSignature":
        if len(text) != 3 or any(ch not in "+-" for ch in text):
            raise DomainError(f"bad byte signature {text!r}")
        return cls(*(1 if ch == "+" else -1 for ch in text))

    def hamming(self, other: "ByteSignature") -> int:
        other = instance(other, ByteSignature, "other")
        return sum(
            a != b
            for a, b in zip((self.s1, self.s2, self.s3), (other.s1, other.s2, other.s3))
        )


def byte_signature_to_blade(s: ByteSignature) -> Multivector:
    """Evaluate the three-bit product (P1 +- N1)(P2 +- N2)(P3 +- N3)."""
    s = instance(s, ByteSignature, "s")
    return _ordered(_SIGNED_PAIRS, (s.s1, s.s2, s.s3))


def _build_signature_table() -> dict[str, ByteSignature]:
    table: dict[str, ByteSignature] = {}
    for bits in itertools.product((1, -1), repeat=3):
        k, sign = _signed_unit(_ordered(_SIGNED_PAIRS, bits)._c)
        if sign != 1:
            raise AssertionError(f"byte state {bits} is a negated blade")
        table[BLADE_NAMES[k]] = ByteSignature(*bits)
    return table


_BLADE_SIGNATURES = _build_signature_table()


def blade_to_byte_signature(name: str) -> ByteSignature:
    """Inverse of :func:`byte_signature_to_blade`, by blade name."""
    return lookup(_BLADE_SIGNATURES, name, "unknown basis blade", UnknownBladeError)


def face_paravector(axis: int, polarity: Polarity) -> StructureCoords:
    """0/1 structure coordinates of P_axis or N_axis (a cube face)."""
    return to_structure_coords(paravector(axis, polarity).value)


DiagKind = Literal["vector_diag", "quaternion_diag"]

#: main-diagonal label pairs, in order A, B, C, D
_DIAG_PAIRS = (("A", "Abar"), ("B", "Bbar"), ("C", "Cbar"), ("D", "Dbar"))


#: kind -> its four basis elements
_DIAG_BASES: dict[str, tuple[Multivector, ...]] = {
    "vector_diag": tuple(_STRUCTURE[a] - _STRUCTURE[b] for a, b in _DIAG_PAIRS),
    "quaternion_diag": tuple(_STRUCTURE[a] + _STRUCTURE[b] for a, b in _DIAG_PAIRS),
}


def diag_basis(kind: DiagKind) -> tuple[Multivector, Multivector, Multivector, Multivector]:
    """The (X - Xbar) family (odd, vector-like) or the (X + Xbar) family
    (even, quaternion-like), derived once at import from the structure
    elements."""
    return lookup(_DIAG_BASES, kind, "unknown diagonal basis")


def _diag_kernel(kind: DiagKind):
    """Straight-line (4 coefficients, then the 4 out-of-span coefficients)
    of a multivector's 8-tuple over one diagonal family.

    The family spans four blade positions; over them its 4x4 matrix
    G = 4 * coefficients is +-1 with G @ G.T = 4 I, so G itself is the
    exact inverse and coefficient r is sum_b G[r][b] c_b.
    """
    basis = _DIAG_BASES[kind]
    live = [b for b in range(8) if any(e._c[b] != 0.0 for e in basis)]
    g = _sign_rows([[4.0 * e._c[b] for b in live] for e in basis], f"{kind} family")
    outputs = [
        "0.0" + "".join(f" {'-' if x < 0 else '+'} c{b}" for x, b in zip(row, live)) for row in g
    ]
    outputs += [f"c{b}" for b in range(8) if b not in live]
    return compile_kernel(kind, ("c",), outputs)


_DIAG_KERNELS = {kind: _diag_kernel(kind) for kind in _DIAG_BASES}


def diag_projection(m: Multivector, kind: DiagKind) -> tuple[tuple[float, ...], float]:
    """Coefficients of the in-span part of ``m`` plus out-of-span residual
    norm, by :func:`math.hypot` (no overflow or underflow)."""
    kernel = lookup(_DIAG_KERNELS, kind, "unknown diagonal basis")
    d1, d2, d3, d4, *rest = kernel(instance(m, Multivector, "m")._c)
    return (d1, d2, d3, d4), math.hypot(*rest)


def decompose_diag(m: Multivector, kind: DiagKind, tol: float = 1e-12) -> tuple[float, ...]:
    """Coordinates of ``m`` over a diagonal family; error if out of span."""
    coeffs, residual = diag_projection(m, kind)
    if not (residual <= tolerance(tol)):
        raise SpanError(
            f"multivector lies outside the {kind} span (residual {residual:g})",
            residual,
        )
    return coeffs
