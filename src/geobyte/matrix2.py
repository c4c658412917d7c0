"""Faithful 2x2 complex-matrix representation of G(3,0).

Defined constructively from four generator images (e0 -> I,
e1 -> [[0,1],[1,0]], e2 -> [[0,-i],[i,0]], e3 -> [[1,0],[0,-1]]) and
extended by products; every printed matrix elsewhere is a test fixture,
not a definition.  Used as the independent oracle for the rest of the
package, and exposed publicly for users coming from matrix habits.

A matrix is four Python complex numbers with hand-written 2x2 arithmetic,
independent of the multivector product kernel; every matrix computed
here is built by :func:`_matrix` (``ComplexMatrix2._trusted``), which
trusts its 4-tuple of complex.  numpy is imported only when
:attr:`ComplexMatrix2.array` is read.
"""

from __future__ import annotations

import math
import operator

from ._kernels import BLADE_NAMES
from ._record import Record, _set
from .errors import DomainError, _shown, complexes, read_json, read_numbers, require_finite
from .multivector import Multivector, _wrap


class ComplexMatrix2(Record):
    """Plain 2x2 complex matrix; no implicit normalization anywhere.

    Built from two rows of two numbers, as nested sequences or a numpy
    array, and stored row by row as (m11, m12, m21, m22)."""

    __slots__ = ("_z",)

    def __init__(self, entries):
        if hasattr(entries, "tolist"):  # a numpy array, as nested lists
            entries = entries.tolist()
        what = "ComplexMatrix2 needs a 2x2 array"
        try:
            # a string is iterable, but its characters are not a row
            (a, b), (c, d) = (() if isinstance(row, (str, bytes)) else row for row in entries)
            z = complexes((a, b, c, d), what)
        except (TypeError, ValueError):  # complexes reads; its DomainError is re-labelled here
            raise DomainError(f"{what}, got {_shown(entries)}") from None
        _set(self, "_z", z)

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor
        return (type(self), ((self._z[:2], self._z[2:]),))

    @property
    def array(self):
        """Read-only 2x2 complex numpy array, built on each access."""
        import numpy as np

        a = np.array(self._z, dtype=np.complex128).reshape(2, 2)
        a.setflags(write=False)
        return a

    # the entries, as Python complex
    m11 = property(lambda self: self._z[0])
    m12 = property(lambda self: self._z[1])
    m21 = property(lambda self: self._z[2])
    m22 = property(lambda self: self._z[3])

    def __add__(self, other: "ComplexMatrix2") -> "ComplexMatrix2":
        if not isinstance(other, ComplexMatrix2):
            return NotImplemented
        return _matrix(tuple(map(operator.add, self._z, other._z)))

    def __sub__(self, other: "ComplexMatrix2") -> "ComplexMatrix2":
        if not isinstance(other, ComplexMatrix2):
            return NotImplemented
        return _matrix(tuple(map(operator.sub, self._z, other._z)))

    def __neg__(self) -> "ComplexMatrix2":
        return _matrix(tuple(map(operator.neg, self._z)))

    def __mul__(self, other):
        if isinstance(other, ComplexMatrix2):
            return _matrix(_matmul(self._z, other._z))
        if isinstance(other, (int, float, complex)):
            return _matrix(tuple([z * other for z in self._z]))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return _matrix(tuple([other * z for z in self._z]))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexMatrix2):
            return NotImplemented
        # entrywise, so a NaN entry is unequal even to itself
        return all(map(operator.eq, self._z, other._z))

    def __hash__(self):
        # complex hashing maps -0.0 and 0.0 together, as == does
        return hash(self._z)

    def approx_eq(self, other: "ComplexMatrix2", tol: float) -> bool:
        """Every entry within ``tol`` in modulus; false when any is NaN."""
        return all(abs(a - b) <= tol for a, b in zip(self._z, other._z))

    def det(self) -> complex:
        a, b, c, d = self._z
        return a * d - b * c

    def to_json(self) -> dict:
        """Entry name -> [re, im]; :class:`DomainError` if any part is NaN
        or infinite."""
        return {
            key: list(require_finite((z.real, z.imag), f"matrix entry {key} must be finite"))
            for key, z in zip(_ENTRY_KEYS, self._z)
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ComplexMatrix2":
        entries = zip(_ENTRY_KEYS, read_json(obj, _ENTRY_KEYS, "matrix"))
        return cls._trusted(tuple([
            complex(*read_numbers(z, f"matrix entry {k} must be 2 finite numbers", 2))
            for k, z in entries
        ]))

    def __repr__(self) -> str:
        return f"ComplexMatrix2({[list(self._z[:2]), list(self._z[2:])]!r})"


_ENTRY_KEYS = ("m11", "m12", "m21", "m22")
#: trusted constructor: its argument is already a 4-tuple of complex
_matrix = ComplexMatrix2._trusted


def _matmul(x: tuple[complex, ...], y: tuple[complex, ...]) -> tuple[complex, ...]:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


_GENERATORS = {"e0": (1 + 0j, 0j, 0j, 1 + 0j), "e1": (0j, 1 + 0j, 1 + 0j, 0j),
               "e2": (0j, -1j, 1j, 0j), "e3": (1 + 0j, 0j, 0j, -1 + 0j)}


def _blade_image(name: str) -> tuple[complex, ...]:
    m = _GENERATORS["e0"]
    for ch in name[1:]:
        m = _matmul(m, _GENERATORS["e" + ch])
    return m


# entry k of every blade image, in blade order.  Each part of an entry
# sums exactly two nonzero terms, so the order fixes only a zero's sign.
_IMAGE_ENTRIES = tuple(zip(*map(_blade_image, BLADE_NAMES)))


def to_matrix(m: Multivector) -> ComplexMatrix2:
    """Linear extension of the generator map; an algebra homomorphism."""
    return _matrix(tuple([sum(map(operator.mul, images, m._c)) for images in _IMAGE_ENTRIES]))


def _halved_traces(r11, i11, r12, i12, r21, i21, r22, i22) -> tuple[float, ...]:
    """The eight blade coefficients of a matrix, from the real and
    imaginary parts of its entries, each a sum of two parts halved.

    w_k = tr(s_k a)/2 over {I, s1, s2, s3}: Re w_k is a grade-0/1
    coefficient, Im w_k that of the blade whose matrix is +-i*s_k.
    Real arithmetic keeps an overflow in the coefficient that overflowed.
    """
    return (
        (r11 + r22) / 2,  # e0 = Re w0
        (r12 + r21) / 2,  # e1 = Re w1
        (i21 - i12) / 2,  # e2 = Re w2
        (r11 - r22) / 2,  # e3 = Re w3
        (i11 - i22) / 2,  # e12 -> i*s3
        (i12 + i21) / 2,  # e23 -> i*s1
        (r21 - r12) / 2,  # e13 -> -i*s2
        (i11 + i22) / 2,  # e123 -> i*I
    )


def from_matrix(x: ComplexMatrix2) -> Multivector:
    """Exact inverse of :func:`to_matrix` via Pauli trace formulas."""
    a11, a12, a21, a22 = x._z
    c = _halved_traces(a11.real, a11.imag, a12.real, a12.imag,
                       a21.real, a21.imag, a22.real, a22.imag)
    if not math.isfinite(sum(c)):
        # The sum of two finite parts a, b may overflow before its halving.
        # Such a coefficient is a/2 + b/2 instead: h = (a/2 + b/2)/2 is
        # finite exactly when a and b are, and so large that 2*h is exact.
        h = _halved_traces(*[p / 2 for z in x._z for p in (z.real, z.imag)])
        c = tuple([ck if math.isfinite(ck) or not math.isfinite(hk) else 2 * hk
                   for ck, hk in zip(c, h)])
    return _wrap(c)


def adjoint(x: ComplexMatrix2) -> ComplexMatrix2:
    """Conjugate transpose; matches reversion under the blade map."""
    a, b, c, d = x._z
    return _matrix((a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()))
