"""The 8-dimensional multivector of G(3,0) and its basic arithmetic.

Coefficients are double precision, stored as a plain 8-tuple of Python
floats.  Every structural constant of the algebra (signs, 1/2, 1/4, 1/8)
is exactly representable, so identities not involving trigonometry hold
with exact float equality.

The public constructor, :meth:`Multivector.scalar`, the scalar operands of
``*`` and ``/``, the weights of :func:`linear_combine` and every tolerance
convert what they are given once, by the number readers of
:mod:`geobyte.errors`; every result computed here is built by :func:`_wrap`
(``Multivector._trusted``), which trusts its 8-tuple of floats.  Products
and the coefficient-wise maps are straight-line kernels generated by
:func:`geobyte._kernels.compile_kernel`.  numpy is imported only when
:attr:`Multivector.coeffs` is read.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Union

from ._kernels import BLADE_GRADES, BLADE_NAMES, INVOLUTIONS, NAME_INDEX, compile_kernel, gp
from ._record import Record, _set
from .errors import (
    DomainError, UnknownBladeError, complexes, instance, lookup, read_json, read_numbers, real,
    reals, require_finite, tolerance,
)

Scalar = Union[int, float]


def _index(name: str) -> int:
    """Storage position of a blade name; :class:`UnknownBladeError` for
    any other name."""
    return lookup(NAME_INDEX, name, "unknown basis blade", UnknownBladeError)


def blade_grade(name: str) -> int:
    """Grade of a named basis blade ('e12' -> 2)."""
    return BLADE_GRADES[_index(name)]


def _map_kernel(name: str, vectors: tuple[str, ...], blade_expr, scalars=()):
    """Coefficient-wise kernel: output blade i is ``blade_expr(i)``."""
    return compile_kernel(name, vectors, [blade_expr(i) for i in range(8)], scalars)


def _signs_kernel(name: str, negated: tuple[int, ...]):
    """Negate the blades whose grade is in ``negated``."""
    return _map_kernel(name, ("a",), lambda i: f"-a{i}" if BLADE_GRADES[i] in negated else f"a{i}")


_add = _map_kernel("add", ("a", "b"), lambda i: f"a{i} + b{i}")
_sub = _map_kernel("sub", ("a", "b"), lambda i: f"a{i} - b{i}")
_scale = _map_kernel("scale", ("a",), lambda i: f"a{i} * s", ("s",))
_neg = _signs_kernel("neg", (0, 1, 2, 3))
#: involution -> its kernel
_INVOLUTION_KERNELS = {kind: _signs_kernel(kind, negated) for kind, negated in INVOLUTIONS.items()}
#: grade -> the kernel keeping only that grade
_GRADE_PARTS = {
    k: _map_kernel(f"grade{k}", ("a",), lambda i, k=k: f"a{i}" if BLADE_GRADES[i] == k else "0.0")
    for k in range(4)
}


class Multivector(Record):
    """Immutable element of G(3,0), stored as 8 coefficients over
    {e0, e1, e2, e3, e12, e23, e13, e123}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[float]):
        _set(self, "_c", reals(coeffs, "Multivector needs exactly 8 coefficients", 8))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Multivector":
        return _wrap(_ZERO)

    @classmethod
    def scalar(cls, x: Scalar) -> "Multivector":
        return _wrap((real(x, "a scalar must be a real number"),) + _ZERO[1:])

    @classmethod
    def basis(cls, name: str) -> "Multivector":
        """Unit blade by name, e.g. 'e13'; :class:`UnknownBladeError`
        for any other name."""
        return _BASIS[_index(name)]

    # -- access -------------------------------------------------------

    @property
    def coeffs(self):
        """Read-only numpy array of the coefficients in storage order,
        built on each access."""
        import numpy as np

        c = np.array(self._c)
        c.setflags(write=False)
        return c

    def __getitem__(self, name: str) -> float:
        return self._c[_index(name)]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return _wrap(_add(self._c, other._c))

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return _wrap(_sub(self._c, other._c))

    def __neg__(self) -> "Multivector":
        return _wrap(_neg(self._c))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return _wrap(gp(self._c, other._c))
        if isinstance(other, (int, float)):
            return _wrap(_scale(self._c, real(other, "a scalar factor must be a real number")))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(_scale(self._c, real(other, "a scalar factor must be a real number")))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            d = real(other, "a divisor must be a real number")
            if d == 0.0:
                raise DomainError("division of a multivector by zero")
            return _wrap(tuple([x / d for x in self._c]))
        return NotImplemented

    def approx_eq(self, other: "Multivector", tol: float) -> bool:
        """Every absolute coefficient difference at most ``tol``; false
        when any difference is NaN."""
        tol = tolerance(tol)
        return all(abs(d) <= tol for d in _sub(self._c, instance(other, Multivector, "other")._c))

    def norm(self) -> float:
        """Euclidean norm of the coefficients, by :func:`math.hypot`: no overflow or underflow."""
        return math.hypot(*self._c)

    # -- grade structure ----------------------------------------------

    def grade_project(self, k: int) -> "Multivector":
        """Zero every coefficient whose blade grade differs from ``k``."""
        return _wrap(lookup(_GRADE_PARTS, k, "grade must be 0..3, got")(self._c))

    def reversion(self) -> "Multivector":
        """Reverse the order of vector factors: grades 2 and 3 negate."""
        return _wrap(_INVOLUTION_KERNELS["reversion"](self._c))

    def grade_involution(self) -> "Multivector":
        """Space reversion (overline): grades 1 and 3 negate."""
        return _wrap(_INVOLUTION_KERNELS["grade_involution"](self._c))

    def clifford_conjugation(self) -> "Multivector":
        """Composite of reversion and grade involution: grades 1, 2 negate."""
        return _wrap(_INVOLUTION_KERNELS["clifford_conjugation"](self._c))

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict[str, float]:
        """Blade name -> coefficient; :class:`DomainError` if any
        coefficient is NaN or infinite, which JSON cannot carry."""
        values = require_finite(self._c, "multivector JSON coefficients must be finite")
        return dict(zip(BLADE_NAMES, values))

    @classmethod
    def from_json(cls, obj: dict[str, float]) -> "Multivector":
        values = read_json(obj, BLADE_NAMES, "multivector")
        what = "multivector JSON coefficients must be finite numbers"
        return cls._trusted(read_numbers(values, what))

    def __repr__(self) -> str:
        terms = [f"{x:g}*{n}" for x, n in zip(self._c, BLADE_NAMES) if x != 0]
        return "Multivector<" + (" + ".join(terms) if terms else "0") + ">"


_ZERO = (0.0,) * 8
#: trusted constructor: its argument is already an 8-tuple of floats
_wrap = Multivector._trusted
#: the 8 unit blades in storage order, and a handle for each
_BASIS = tuple(_wrap(_ZERO[:i] + (1.0,) + _ZERO[i + 1 :]) for i in range(8))
E0, E1, E2, E3, E12, E23, E13, E123 = _BASIS


_INVOLUTIONS = {kind: operator.methodcaller(kind) for kind in INVOLUTIONS}


def involution(kind: str, m: Multivector) -> Multivector:
    """Apply one of the three involutions by name."""
    return lookup(_INVOLUTIONS, kind, "unknown involution")(instance(m, Multivector, "m"))


def basis_element(name: str) -> Multivector:
    """Unit multivector for a named blade."""
    return Multivector.basis(name)


def geometric_product(m: Multivector, n: Multivector) -> Multivector:
    return instance(m, Multivector, "m") * instance(n, Multivector, "n")


def linear_combine(terms: Iterable[tuple[Scalar, Multivector]]) -> Multivector:
    """Componentwise weighted sum of (scalar, multivector) pairs."""
    acc = _ZERO
    for term in terms:
        try:
            w, m = term
        except (TypeError, ValueError):
            what = "terms must be a (weight, Multivector) pair"
            raise TypeError(f"{what}, got {type(term).__name__}") from None
        c = instance(m, Multivector, "terms")._c
        acc = _add(acc, _scale(c, real(w, "a linear_combine weight must be a real number")))
    return _wrap(acc)


def grade_project(m: Multivector, k: int) -> Multivector:
    return instance(m, Multivector, "m").grade_project(k)


def approx_eq(m: Multivector, n: Multivector, tol: float) -> bool:
    return instance(m, Multivector, "m").approx_eq(instance(n, Multivector, "n"), tol)


class ComplexScalar(Record):
    """Complex number embedded as re*e0 + im*e123.

    The pseudoscalar is central and squares to -e0, so the embedding
    commutes with every multivector.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: float, im: float = 0.0):
        _set(self, "re", real(re, "ComplexScalar parts must be real numbers"))
        _set(self, "im", real(im, "ComplexScalar parts must be real numbers"))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexScalar":
        """``z`` as :func:`geobyte.errors.complexes` reads it."""
        (z,) = complexes((z,), "a complex scalar must be a complex number")
        return cls._trusted(z.real, z.imag)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def conjugate(self) -> "ComplexScalar":
        return ComplexScalar._trusted(self.re, -self.im)

    def embed(self) -> Multivector:
        return _wrap((self.re, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, self.im))


def complex_multiply(z: Union[ComplexScalar, complex], m: Multivector) -> Multivector:
    """Multiply by a complex scalar realized through the pseudoscalar;
    ``z`` is a :class:`ComplexScalar` or read by :meth:`ComplexScalar.from_complex`."""
    if not isinstance(z, ComplexScalar):
        z = ComplexScalar.from_complex(z)
    return z.embed() * instance(m, Multivector, "m")

