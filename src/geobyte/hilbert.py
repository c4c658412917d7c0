"""Hilbert projections into the one-sided spinor ideals of P3/N3,
geometric qubits, and the NOT / Hadamard gate analogs.

Spinors carry their ideal (positive/negative) and variance
(contravariant/covariant) explicitly so that ill-matched products are
rejected instead of silently producing junk.  Each name is read from one
table: ideal -> projector (:data:`_PROJECTORS`), variance -> the side on
which its spinors absorb the projector (:data:`_ABSORB`), and side of a
projection -> the variance it makes (:data:`_SIDE_VARIANCE`).

The public :class:`Spinor` constructor checks that its value lies in the
ideal (one more product and an ``approx_eq``).  Every spinor computed here
is built by :func:`_spinor` (``Spinor._trusted``), which trusts that it
does:

- :func:`project`, :func:`spinor_pair`, :func:`spinor_from_components`
  and :func:`hadamard_basis_vectors` multiply by the projector itself.
  Each coefficient of a product with P3/N3 is a sum of two halved terms,
  so multiplying by the projector again gives the value back, exactly
  unless halving a subnormal coefficient rounds.
  The values that come from outside (``m``, ``alpha``, ``beta``) must be
  finite: ``0 * inf`` would put a NaN in the product.
- :func:`covariant` reverses a contravariant spinor: ``~(v*P) = P*~v``,
  since P3 and N3 are their own reversion, and reversion only flips signs.
- :func:`not_gate` multiplies on the other side from the projector, by a
  basis blade, which only permutes and negates coefficients.
"""

from __future__ import annotations

import cmath
from typing import Literal

from ._kernels import BLADE_NAMES
from ._record import Record
from .clusters import N1, N3, P1, P3, _signed_unit
from .errors import DomainError, complexes, lookup, read_json, require_finite
from .multivector import E1, E3, ComplexScalar, Multivector
from .transforms import Quaternion, rotate

Ideal = Literal["positive", "negative"]
Variance = Literal["contravariant", "covariant"]

_ABSORB_TOL = 1e-12

#: the basis spinor of the positive contravariant ideal beside P3
E1P3 = E1 * P3
#: the Hadamard regrouping's bases, P1*P3 = A + C and N1*P3 = B + Dbar
_HADAMARD_BASES = (P1 * P3, N1 * P3)


#: ideal -> its projector
_PROJECTORS: dict[str, Multivector] = {"positive": P3, "negative": N3}
#: variance -> the product by which its spinors absorb the projector p
_ABSORB = {
    "contravariant": lambda v, p: v * p,  # on the right
    "covariant": lambda v, p: p * v,  # on the left
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
        p = lookup(_PROJECTORS, self.ideal, "unknown ideal")
        absorbed = lookup(_ABSORB, self.variance, "unknown variance")(self.value, p)
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


def _expect(s: Spinor, variance: Variance, ideal: Ideal | None, what: str) -> None:
    """:class:`DomainError` ``what`` unless ``s`` has ``variance`` and, if given, ``ideal``."""
    if s.variance != variance or ideal is not None and s.ideal != ideal:
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
    p = lookup(_PROJECTORS, ideal, "unknown ideal")
    variance = lookup(_SIDE_VARIANCE, side, "unknown side")
    value = _ABSORB[variance](m, p)
    # finite exactly when m is: each coefficient is a sum of two halves
    require_finite(value._c, "projection must be finite")
    return _spinor(value, ideal, variance)


def degeneracy_partner(blade: str, ideal: Ideal) -> tuple[str, int]:
    """The other basis blade with the same projection image in the ideal,
    plus the relative sign (blade * proj = sign * partner * proj).

    blade * e3 = s * partner for a single basis blade, and e3 * P3 = P3,
    e3 * N3 = -N3, so the sign is s for P3 and -s for N3.
    """
    flip = 1 if lookup(_PROJECTORS, ideal, "unknown ideal") is P3 else -1
    k, sign = _signed_unit((Multivector.basis(blade) * E3)._c)
    return BLADE_NAMES[k], flip * sign


def spinor_pair(q: Quaternion) -> GeometricQubit:
    """Split a unit quaternion into its two contravariant spinor halves."""
    return GeometricQubit(
        positive=_spinor(q.value * P3, "positive", "contravariant"),
        negative=_spinor(q.value * N3, "negative", "contravariant"),
    )


def covariant(s: Spinor) -> Spinor:
    """Reversion; flips variance, keeps the ideal."""
    _expect(s, "contravariant", None, "covariant() expects a contravariant spinor")
    return _spinor(s.value.reversion(), s.ideal, "covariant")


def inner(sc: Spinor, s: Spinor) -> Multivector:
    """Covariant-then-contravariant product; P3 (or N3) for spinors of
    one unit quaternion."""
    _expect(sc, "covariant", None, "inner() wants (covariant, contravariant)")
    _expect(s, "contravariant", sc.ideal,
            "inner() wants (covariant, contravariant) and requires matching ideals")
    return sc.value * s.value


def outer(s: Spinor, sc: Spinor) -> ParavectorState:
    """Contravariant-then-covariant product; the rotated paravector."""
    _expect(s, "contravariant", None, "outer() wants (contravariant, covariant)")
    _expect(sc, "covariant", s.ideal,
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
    _expect(s, "contravariant", "positive",
            "component extraction is defined on the positive contravariant ideal")
    v = s.value
    return complex(2 * v["e0"], 2 * v["e12"]), complex(2 * v["e1"], 2 * v["e2"])


def spinor_from_components(alpha: complex, beta: complex) -> Spinor:
    """alpha*P3 + beta*(e1*P3) in the positive contravariant ideal; both
    components must be finite."""
    alpha, beta = complexes((alpha, beta), "spinor components must be numbers")
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise DomainError(f"spinor components must be finite, got {alpha!r}, {beta!r}")
    value = (
        ComplexScalar._trusted(alpha.real, alpha.imag).embed() * P3
        + ComplexScalar._trusted(beta.real, beta.imag).embed() * E1P3
    )
    return _spinor(value, "positive", "contravariant")


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
    _spinor((2.0 ** -0.5 * v) * P3, "positive", "contravariant") for v in (E1 + E3, E1 - E3)
)


def hadamard_basis_vectors() -> tuple[Spinor, Spinor]:
    """((e1+e3)/sqrt2 * P3, (e1-e3)/sqrt2 * P3): the quantum-style
    Hadamard basis, normed before projection, derived once at import."""
    return _HADAMARD_VECTORS


def not_gate(s: Spinor) -> Spinor:
    """Left multiplication by e1: swaps the two basis spinors of the
    ideal; involutive since e1*e1 = e0."""
    _expect(s, "contravariant", None, "not_gate() expects a contravariant spinor")
    return _spinor(E1 * s.value, s.ideal, s.variance)
