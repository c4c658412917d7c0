"""Faithful 2x2 complex-matrix representation of G(3,0).

Defined constructively from four generator images (e0 -> I,
e1 -> [[0,1],[1,0]], e2 -> [[0,-i],[i,0]], e3 -> [[1,0],[0,-1]]) and
extended by products; every printed matrix elsewhere is a test fixture,
not a definition.  Used as the independent oracle for the rest of the
package, and exposed publicly for users coming from matrix habits.

This is the one module built on numpy arrays; it imports numpy on first
use, so importing geobyte does not.
"""

from __future__ import annotations

import functools

from ._kernels import BLADE_NAMES, NAME_INDEX
from .multivector import Multivector, require_finite


class ComplexMatrix2:
    """Plain 2x2 complex matrix; no implicit normalization anywhere."""

    __slots__ = ("_m",)

    def __init__(self, entries):
        import numpy as np

        m = np.asarray(entries, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError("ComplexMatrix2 needs a 2x2 array")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "_m", m)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix2 is immutable")

    @property
    def array(self):
        """The read-only 2x2 complex numpy array."""
        return self._m

    @property
    def m11(self) -> complex:
        return complex(self._m[0, 0])

    @property
    def m12(self) -> complex:
        return complex(self._m[0, 1])

    @property
    def m21(self) -> complex:
        return complex(self._m[1, 0])

    @property
    def m22(self) -> complex:
        return complex(self._m[1, 1])

    def __add__(self, other: "ComplexMatrix2") -> "ComplexMatrix2":
        return ComplexMatrix2(self._m + other._m)

    def __sub__(self, other: "ComplexMatrix2") -> "ComplexMatrix2":
        return ComplexMatrix2(self._m - other._m)

    def __neg__(self) -> "ComplexMatrix2":
        return ComplexMatrix2(-self._m)

    def __mul__(self, other):
        if isinstance(other, ComplexMatrix2):
            return ComplexMatrix2(self._m @ other._m)
        if isinstance(other, (int, float, complex)):
            return ComplexMatrix2(self._m * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ComplexMatrix2(other * self._m)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexMatrix2):
            return NotImplemented
        return bool((self._m == other._m).all())

    def __hash__(self):
        # complex hashing maps -0.0 and 0.0 together, as == does
        return hash(tuple(self._m.flat))

    def approx_eq(self, other: "ComplexMatrix2", tol: float) -> bool:
        return bool(abs(self._m - other._m).max() <= tol)

    def det(self) -> complex:
        return complex(self._m[0, 0] * self._m[1, 1] - self._m[0, 1] * self._m[1, 0])

    def to_json(self) -> dict:
        """Entry name -> [re, im]; :class:`DomainError` if any part is NaN
        or infinite."""
        return {
            key: list(require_finite((z.real, z.imag), f"matrix entry {key}"))
            for key, z in zip(_ENTRY_KEYS, self._m.flat)
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ComplexMatrix2":
        if set(obj) != set(_ENTRY_KEYS) or any(len(obj[k]) != 2 for k in _ENTRY_KEYS):
            raise ValueError("matrix JSON must have exactly m11, m12, m21, m22 as [re, im]")
        e = [complex(*require_finite(obj[k], f"matrix entry {k}")) for k in _ENTRY_KEYS]
        return cls([e[:2], e[2:]])

    def __repr__(self) -> str:
        return f"ComplexMatrix2({self._m.tolist()!r})"


_ENTRY_KEYS = ("m11", "m12", "m21", "m22")


@functools.cache
def _blade_matrices():
    """(8, 2, 2) read-only images of the blades, built on first use."""
    import numpy as np

    i = 1j
    gen = {
        "e0": np.eye(2, dtype=np.complex128),
        "e1": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "e2": np.array([[0, -i], [i, 0]], dtype=np.complex128),
        "e3": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }
    mats = np.zeros((8, 2, 2), dtype=np.complex128)
    for name in BLADE_NAMES:
        if name in gen:
            m = gen[name]
        else:
            m = gen["e0"]
            for ch in name[1:]:
                m = m @ gen["e" + ch]
        mats[NAME_INDEX[name]] = m
    mats.setflags(write=False)
    return mats


def to_matrix(m: Multivector) -> ComplexMatrix2:
    """Linear extension of the generator map; an algebra homomorphism."""
    import numpy as np

    return ComplexMatrix2(np.tensordot(m.coeffs, _blade_matrices(), axes=(0, 0)))


def from_matrix(x: ComplexMatrix2) -> Multivector:
    """Exact inverse of :func:`to_matrix` via Pauli trace formulas."""
    a = x.array
    # components over {I, s1, s2, s3} with complex weights
    w0 = (a[0, 0] + a[1, 1]) / 2.0
    w1 = (a[0, 1] + a[1, 0]) / 2.0
    w2 = (a[0, 1] - a[1, 0]) * 0.5j  # tr(s2 @ a)/2
    w3 = (a[0, 0] - a[1, 1]) / 2.0
    # real parts are the grade-0/1 coefficients; imaginary parts sit on
    # the blade whose matrix is i times the Pauli one
    return Multivector(
        [
            w0.real,  # e0
            w1.real,  # e1
            w2.real,  # e2
            w3.real,  # e3
            w3.imag,  # e12 -> i*s3
            w1.imag,  # e23 -> i*s1
            -w2.imag,  # e13 -> -i*s2
            w0.imag,  # e123 -> i*I
        ]
    )


def adjoint(x: ComplexMatrix2) -> ComplexMatrix2:
    """Conjugate transpose; matches reversion under the blade map."""
    return ComplexMatrix2(x.array.conj().T)
