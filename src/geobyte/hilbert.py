"""Hilbert projections into the one-sided spinor ideals of P3/N3,
geometric qubits, and the NOT / Hadamard gate analogs.

Spinors carry their ideal (positive/negative) and variance
(contravariant/covariant) explicitly so that ill-matched products are
rejected instead of silently producing junk.  Each name is read from one
table: ideal -> projector (:data:`_PROJECTORS`), ideal and variance -> the
kernel by which its spinors absorb the projector (:data:`_ABSORB`), and
side of a projection -> the variance it makes (:data:`_SIDE_VARIANCE`).

The four absorbing kernels (m * P3, m * N3, P3 * m, N3 * m) are generated
by :func:`geobyte._kernels.product` with the projector as a constant
operand, so they form only the two nonzero terms of each coefficient.  On
finite input they are bit-identical to the full product; they differ from
it only on non-finite input, where they form no ``inf * 0`` NaN.

The public :class:`Spinor` constructor checks that its value lies in the
ideal (one absorbing kernel and an ``approx_eq``; a value with a NaN or
inf coefficient never passes).  Every spinor computed here is built
trusted to lie there: it is an absorbing kernel's output (:func:`_absorbed`),
:func:`covariant`'s reversion of one, or :func:`not_gate`'s left multiple
of one by a basis blade.  Multiplying each by its projector again gives
it back: the projector is idempotent, is its own reversion
(``~(v*P) = P*~v``), and keeps a factor on the other side
(``(b*v)*P = b*(v*P)``).  Every coefficient is a sum of two halved terms,
or a signed copy of one, so this is exact unless halving a subnormal rounds.  The values from outside
(``m``, ``alpha``, ``beta``) are checked finite before the kernel, so the
error names them.
"""

from __future__ import annotations

import cmath
from typing import Literal

from ._kernels import BLADE_NAMES, PRODUCT_TABLE, product
from ._record import Record
from .clusters import N1, N3, P1, P3
from .errors import DomainError, complexes, instance, lookup, read_json, require_finite
from .multivector import E1, E3, ComplexScalar, Multivector, _index, _wrap
from .transforms import Quaternion, rotate

Ideal = Literal["positive", "negative"]
Variance = Literal["contravariant", "covariant"]

_ABSORB_TOL = 1e-12

#: the Hadamard regrouping's bases, P1*P3 = A + C and N1*P3 = B + Dbar
_HADAMARD_BASES = (P1 * P3, N1 * P3)


#: ideal -> its projector
_PROJECTORS: dict[str, Multivector] = {"positive": P3, "negative": N3}
#: ideal -> variance -> the kernel by which its spinors absorb the
#: projector: on the right for contravariant ones, on the left for covariant
_ABSORB = {
    ideal: {
        "contravariant": product(f"{ideal}_contravariant", ("m", ()), p._c),
        "covariant": product(f"{ideal}_covariant", p._c, ("m", ())),
    }
    for ideal, p in _PROJECTORS.items()
}
#: side of a projection -> the variance of the spinor it makes
_SIDE_VARIANCE = {"right": "contravariant", "left": "covariant"}


class Spinor(Record):
    """Element ``value`` (Multivector) of a one-sided ideal, tagged with
    its ``ideal`` (Ideal) and ``variance`` (Variance).

    Contravariant spinors absorb the projector on the right
    (value * P3 = value); covariant ones absorb on the left.
    """

    __slots__ = ("value", "ideal", "variance")

    def __post_init__(self):
        by_variance = lookup(_ABSORB, self.ideal, "unknown ideal")
        kernel = lookup(by_variance, self.variance, "unknown variance")
        absorbed = _wrap(kernel(instance(self.value, Multivector, "value")._c))
        if not absorbed.approx_eq(self.value, _ABSORB_TOL):
            off = (absorbed - self.value).norm()
            raise DomainError(
                f"value does not lie in the {self.ideal} {self.variance} ideal, "
                f"got off-ideal norm {off!r}"
            )

    def to_json(self) -> dict:
        return {
            "ideal": self.ideal,
            "variance": self.variance,
            "value": self.value.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Spinor":
        value, ideal, variance = read_json(obj, ("value", "ideal", "variance"), "spinor")
        return cls(Multivector.from_json(value), ideal, variance)


#: trusted constructor: its value lies in the ideal by construction
_spinor = Spinor._trusted


def _absorbed(c: tuple[float, ...], ideal: Ideal, variance: Variance) -> Spinor:
    """The spinor that the 8-tuple ``c`` makes by absorbing the projector
    of ``ideal`` on the side of ``variance``: its kernel's output."""
    return _spinor(_wrap(_ABSORB[ideal][variance](c)), ideal, variance)


def _expect(s: Spinor, name: str, variance: Variance, ideal: Ideal | None, what: str) -> None:
    """:class:`TypeError` naming the parameter ``name`` unless ``s`` is a
    :class:`Spinor`; :class:`DomainError` ``what`` unless it has ``variance``
    and, if given, ``ideal``."""
    if instance(s, Spinor, name).variance != variance or ideal is not None and s.ideal != ideal:
        raise DomainError(f"{what}, got ({s.ideal!r}, {s.variance!r})")


class GeometricQubit(Record):
    """Complementary Spinor pair Q*P3 (positive) and Q*N3 (negative); their
    sum reconstructs the generating quaternion."""

    __slots__ = ("positive", "negative")


class ParavectorState(Record):
    """Idempotent Multivector (e0 +- a)/2 for a unit vector a; scalar part 1/2."""

    __slots__ = ("value",)


def project(m: Multivector, ideal: Ideal, side: Literal["right", "left"]) -> Spinor:
    """One-sided multiplication by P3 or N3; ``m`` must be finite."""
    lookup(_ABSORB, ideal, "unknown ideal")  # the ideal is read first, m last
    variance = lookup(_SIDE_VARIANCE, side, "unknown side")
    # the product is finite when m is: each coefficient is a sum of two halves
    c = require_finite(instance(m, Multivector, "m")._c, "projection input must be finite")
    return _absorbed(c, ideal, variance)


def degeneracy_partner(blade: str, ideal: Ideal) -> tuple[str, int]:
    """The other basis blade with the same projection image in the ideal,
    plus the relative sign (blade * proj = sign * partner * proj).

    blade * e3 = s * partner, the product table's entry in column 3 (e3),
    and e3 * P3 = P3, e3 * N3 = -N3, so the sign is s times the sign of the
    projector's e3 coefficient (+1/2 for P3, -1/2 for N3).
    """
    e3 = lookup(_PROJECTORS, ideal, "unknown ideal")._c[3]
    k, s = PRODUCT_TABLE[_index(blade)][3]
    return BLADE_NAMES[k], s if e3 > 0 else -s


def spinor_pair(q: Quaternion) -> GeometricQubit:
    """Split a unit quaternion into its two contravariant spinor halves."""
    c = instance(q, Quaternion, "q")._value._c
    return GeometricQubit(
        positive=_absorbed(c, "positive", "contravariant"),
        negative=_absorbed(c, "negative", "contravariant"),
    )


def covariant(s: Spinor) -> Spinor:
    """Reversion; flips variance, keeps the ideal."""
    _expect(s, "s", "contravariant", None, "covariant() expects a contravariant spinor")
    return _spinor(s.value.reversion(), s.ideal, "covariant")


def inner(sc: Spinor, s: Spinor) -> Multivector:
    """Covariant-then-contravariant product; P3 (or N3) for spinors of
    one unit quaternion."""
    _expect(sc, "sc", "covariant", None, "inner() wants (covariant, contravariant)")
    _expect(s, "s", "contravariant", sc.ideal,
            "inner() wants (covariant, contravariant) and requires matching ideals")
    return sc.value * s.value


def outer(s: Spinor, sc: Spinor) -> ParavectorState:
    """Contravariant-then-covariant product; the rotated paravector."""
    _expect(s, "s", "contravariant", None, "outer() wants (contravariant, covariant)")
    _expect(sc, "sc", "covariant", s.ideal,
            "outer() wants (contravariant, covariant) and requires matching ideals")
    return ParavectorState(s.value * sc.value)


def reconstruct_vector(q: Quaternion) -> Multivector:
    """Q*P3*~Q - Q*N3*~Q, the rotated image of e3.

    P3 - N3 = e3 exactly, so this is the one sandwich Q*e3*~Q,
    :func:`geobyte.transforms.rotate` of e3."""
    return rotate(E3, q)


def spinor_components(s: Spinor) -> tuple[complex, complex]:
    """Coefficients (alpha, beta) of a positive contravariant spinor over
    {P3, e1*P3}, with i realized as the pseudoscalar."""
    _expect(s, "s", "contravariant", "positive",
            "component extraction is defined on the positive contravariant ideal")
    v = s.value
    return complex(2 * v["e0"], 2 * v["e12"]), complex(2 * v["e1"], 2 * v["e2"])


def spinor_from_components(alpha: complex, beta: complex) -> Spinor:
    """alpha*P3 + beta*(e1*P3) in the positive contravariant ideal; both
    components must be finite."""
    alpha, beta = complexes((alpha, beta), "spinor components must be numbers")
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise DomainError(f"spinor components must be finite, got {alpha!r}, {beta!r}")
    # (alpha + beta*e1) * P3, with i realised as e123, so beta's imaginary
    # part lands on e123*e1 = e23
    c = (alpha.real, beta.real, 0.0, 0.0, 0.0, beta.imag, 0.0, alpha.imag)
    return _absorbed(c, "positive", "contravariant")


class HadamardTerms(Record):
    """Regrouped form (alpha+beta)*(P1*P3) + (alpha-beta)*(N1*P3),
    with the structure-element identities P1*P3 = A + C and
    N1*P3 = B + Dbar.  The coefficients are complex, the bases
    Multivectors."""

    __slots__ = ("coeff_plus", "coeff_minus", "plus_basis", "minus_basis")

    def resum(self) -> Multivector:
        return (
            ComplexScalar.from_complex(self.coeff_plus).embed() * self.plus_basis
            + ComplexScalar.from_complex(self.coeff_minus).embed() * self.minus_basis
        )


def hadamard_regroup(s: Spinor) -> HadamardTerms:
    """Rewrite a positive contravariant spinor over {P1*P3, N1*P3}."""
    alpha, beta = spinor_components(s)
    plus, minus = alpha + beta, alpha - beta
    if not (cmath.isfinite(plus) and cmath.isfinite(minus)):
        raise DomainError(f"Hadamard coefficients overflow: {plus!r}, {minus!r}")
    return HadamardTerms(plus, minus, *_HADAMARD_BASES)


_HADAMARD_VECTORS = tuple(
    _absorbed((2.0 ** -0.5 * v)._c, "positive", "contravariant") for v in (E1 + E3, E1 - E3)
)


def hadamard_basis_vectors() -> tuple[Spinor, Spinor]:
    """((e1+e3)/sqrt2 * P3, (e1-e3)/sqrt2 * P3): the quantum-style
    Hadamard basis, normed before projection, derived once at import."""
    return _HADAMARD_VECTORS


def not_gate(s: Spinor) -> Spinor:
    """Left multiplication by e1: swaps the two basis spinors of the
    ideal; involutive since e1*e1 = e0."""
    _expect(s, "s", "contravariant", None, "not_gate() expects a contravariant spinor")
    return _spinor(E1 * s.value, s.ideal, s.variance)
