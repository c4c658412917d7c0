"""The geometric byte: idempotent paravectors, the eight structure
elements, byte signatures, unit-cube coordinates and the two diagonal
4D bases.

Every table here is computed from the definitions (ordered paravector
products), never transcribed from printed expansions; printed rows are
asserted in the test suite instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._kernels import BLADE_NAMES, NAME_INDEX
from .errors import DomainError, SpanError
from .multivector import E0, Multivector

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


@dataclass(frozen=True)
class Paravector:
    """Idempotent half-sum/half-difference of e0 and a basis vector."""

    axis: int
    polarity: Polarity
    value: Multivector


def paravector(axis: int, polarity: Polarity) -> Paravector:
    """P_axis = (e0 + e_axis)/2 or N_axis = (e0 - e_axis)/2."""
    if axis not in (1, 2, 3):
        raise DomainError(f"paravector axis must be 1..3, got {axis}")
    if polarity not in ("positive", "negative"):
        raise DomainError(f"bad polarity {polarity!r}")
    sign = 1.0 if polarity == "positive" else -1.0
    value = (E0 + sign * Multivector.basis(f"e{axis}")) * 0.5
    return Paravector(axis, polarity, value)


P1 = paravector(1, "positive").value
P2 = paravector(2, "positive").value
P3 = paravector(3, "positive").value
N1 = paravector(1, "negative").value
N2 = paravector(2, "negative").value
N3 = paravector(3, "negative").value

_PAIRS = ((P1, N1), (P2, N2), (P3, N3))


def _ordered_product(polarity: tuple[int, int, int]) -> Multivector:
    """(P1|N1)(P2|N2)(P3|N3), one paravector per axis, in axis order."""
    f1, f2, f3 = (p if s > 0 else n for (p, n), s in zip(_PAIRS, polarity))
    return f1 * f2 * f3


_STRUCTURE: dict[str, Multivector] = {
    label: _ordered_product(polarity) for label, polarity in POLARITIES.items()
}


def structure_element(label: str) -> Multivector:
    """One of the eight structure elements A..Abar.

    They sum to e0 and are absorbed or annihilated one-sidedly by P3/N3,
    but they are not idempotents: every product S_a * S_b, squares
    included, is z * S_c with z in {(+-1 +- i)/4}, i realized as e123,
    where S_c has the first polarity of a and the last polarity of b
    (the middle one taken from a), as in POLARITIES.
    """
    try:
        return _STRUCTURE[label]
    except KeyError:
        raise DomainError(f"unknown structure element {label!r}") from None


def _build_sign_matrix() -> np.ndarray:
    """Rows = labels, columns = blades, entries = 8 * coefficient.

    The eight rows form a Hadamard-type +-1 matrix with H @ H.T = 8 I,
    which makes the structure-coordinate change of basis exactly
    invertible in floating point.
    """
    h = np.empty((8, 8))
    for i, label in enumerate(LABELS):
        h[i] = 8.0 * _STRUCTURE[label].coeffs
    hi = np.rint(h)
    if not np.array_equal(hi, h) or not np.array_equal(np.abs(hi), np.ones((8, 8))):
        raise AssertionError("structure elements are not +-1/8 sign patterns")
    if not np.array_equal(hi @ hi.T, 8.0 * np.eye(8)):
        raise AssertionError("structure sign matrix is not Hadamard-type")
    hi.setflags(write=False)
    return hi


#: H[label, blade] = +-1 with structure_element(label) = (1/8) sum H[l,b] e_b
SIGN_MATRIX = _build_sign_matrix()


@dataclass(frozen=True)
class StructureCoords:
    """Coordinates of a multivector over the eight structure elements,
    in label order A, B, C, D, Dbar, Cbar, Bbar, Abar."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 8:
            raise ValueError("StructureCoords needs 8 values")

    def __getitem__(self, label: str) -> float:
        return self.values[LABEL_INDEX[label]]

    def to_json(self) -> dict[str, float]:
        return {l: float(v) for l, v in zip(LABELS, self.values)}

    @classmethod
    def from_json(cls, obj: dict[str, float]) -> "StructureCoords":
        if set(obj) != set(LABELS):
            raise ValueError("structure coords JSON must have exactly the 8 labels")
        return cls(tuple(float(obj[l]) for l in LABELS))


def to_structure_coords(m: Multivector) -> StructureCoords:
    """Unique coordinates of ``m`` over the structure elements (exact)."""
    return StructureCoords(tuple(float(x) for x in SIGN_MATRIX @ m.coeffs))


def from_structure_coords(c: StructureCoords) -> Multivector:
    """Exact inverse of :func:`to_structure_coords`."""
    v = np.asarray(c.values)
    return Multivector((v @ SIGN_MATRIX) / 8.0)


@dataclass(frozen=True)
class ByteSignature:
    """The {+,-,+}-style three-bit state naming one basis blade."""

    s1: int
    s2: int
    s3: int

    def __post_init__(self):
        for s in (self.s1, self.s2, self.s3):
            if s not in (1, -1):
                raise DomainError("signature components must be +1 or -1")

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in (self.s1, self.s2, self.s3))

    @classmethod
    def parse(cls, text: str) -> "ByteSignature":
        if len(text) != 3 or any(ch not in "+-" for ch in text):
            raise DomainError(f"bad byte signature {text!r}")
        return cls(*(1 if ch == "+" else -1 for ch in text))

    def hamming(self, other: "ByteSignature") -> int:
        return sum(
            a != b
            for a, b in zip((self.s1, self.s2, self.s3), (other.s1, other.s2, other.s3))
        )


def byte_signature_to_blade(s: ByteSignature) -> Multivector:
    """Evaluate the three-bit product (P1 +- N1)(P2 +- N2)(P3 +- N3)."""
    signs = (s.s1, s.s2, s.s3)
    factors = [p + n if sg > 0 else p - n for (p, n), sg in zip(_PAIRS, signs)]
    return factors[0] * factors[1] * factors[2]


def _build_signature_table() -> dict[str, ByteSignature]:
    table: dict[str, ByteSignature] = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                sig = ByteSignature(s1, s2, s3)
                blade = byte_signature_to_blade(sig)
                c = blade.coeffs
                hot = np.flatnonzero(c)
                if len(hot) != 1 or c[hot[0]] != 1.0:
                    raise AssertionError("byte state is not a unit blade")
                table[BLADE_NAMES[hot[0]]] = sig
    return table


_BLADE_SIGNATURES = _build_signature_table()


def blade_to_byte_signature(name: str) -> ByteSignature:
    """Inverse of :func:`byte_signature_to_blade`, by blade name."""
    try:
        return _BLADE_SIGNATURES[name]
    except KeyError:
        raise DomainError(f"unknown basis blade {name!r}") from None


def face_paravector(axis: int, polarity: Polarity) -> StructureCoords:
    """0/1 structure coordinates of P_axis or N_axis (a cube face)."""
    return to_structure_coords(paravector(axis, polarity).value)


DiagKind = Literal["vector_diag", "quaternion_diag"]

#: main-diagonal label pairs, in order A, B, C, D
_DIAG_PAIRS = (("A", "Abar"), ("B", "Bbar"), ("C", "Cbar"), ("D", "Dbar"))


def diag_basis(kind: DiagKind) -> tuple[Multivector, Multivector, Multivector, Multivector]:
    """The (X - Xbar) family (odd, vector-like) or the (X + Xbar) family
    (even, quaternion-like), computed from the structure elements."""
    if kind == "vector_diag":
        return tuple(_STRUCTURE[a] - _STRUCTURE[b] for a, b in _DIAG_PAIRS)
    if kind == "quaternion_diag":
        return tuple(_STRUCTURE[a] + _STRUCTURE[b] for a, b in _DIAG_PAIRS)
    raise DomainError(f"unknown diagonal basis {kind!r}")


def _diag_solver(kind: DiagKind) -> tuple[np.ndarray, np.ndarray]:
    """(blade positions spanned, exact inverse +-1 matrix) for a family."""
    basis = diag_basis(kind)
    cols = np.stack([b.coeffs for b in basis], axis=1)
    live = np.flatnonzero(np.any(cols != 0.0, axis=1))
    g = np.rint(4.0 * cols[live].T)  # rows = basis elements over live blades
    if not np.array_equal(g @ g.T, 4.0 * np.eye(4)):
        raise AssertionError("diagonal family is not Hadamard-type")
    return live, g


_DIAG_SOLVERS = {k: _diag_solver(k) for k in ("vector_diag", "quaternion_diag")}


def diag_projection(m: Multivector, kind: DiagKind) -> tuple[tuple[float, ...], float]:
    """Coefficients of the in-span part of ``m`` plus out-of-span residual norm."""
    if kind not in _DIAG_SOLVERS:
        raise DomainError(f"unknown diagonal basis {kind!r}")
    live, g = _DIAG_SOLVERS[kind]
    sub = m.coeffs[live]
    coeffs = g @ sub  # exact: Hadamard-type inverse
    rest = np.delete(m.coeffs, live)
    residual = float(np.sqrt(np.dot(rest, rest)))
    return tuple(float(x) for x in coeffs), residual


def decompose_diag(m: Multivector, kind: DiagKind, tol: float = 1e-12) -> tuple[float, ...]:
    """Coordinates of ``m`` over a diagonal family; error if out of span."""
    coeffs, residual = diag_projection(m, kind)
    if not (residual <= tol):
        raise SpanError(
            f"multivector lies outside the {kind} span (residual {residual:g})",
            residual,
        )
    return coeffs
