"""Unitary operations: rotations via unit quaternions (with Cayley-Klein
and Euler-Rodrigues parameters) and reflections in points, lines and
planes, including the signed permutations they induce on the structure
elements.

Sign conventions are pinned by the 2x2 matrix representation: a
quaternion maps to [[alpha, -beta*], [beta, alpha*]], and the rotation
e1 -> e2 about the e3 axis through +pi/2 fixes the anticlockwise
orientation.

The public :class:`Quaternion` constructor checks that its value is even
and, by default, unit.  One predicate, :func:`_is_unit`, is the unit test
of quaternions and mirrors, and one norm, :func:`_off_grade_norm`, decides
evenness and a mirror's grade; both use :func:`math.hypot`, which neither
overflows nor underflows.  :func:`quaternion_from_axis_angle` and negation
build their result with :func:`_quaternion` (``Quaternion._trusted``),
which trusts it:

- :func:`quaternion_from_axis_angle` has read the four fields of its
  :class:`AxisAngle` once, by :func:`geobyte.errors.real`, and checked the
  axis (unit within tolerance) and the angle (finite) itself.  It writes
  the eight coefficients of cos - sin * (e123 * c) directly, without the
  product: cos(t/2) on e0, -sin(t/2) * (c3, c1, -c2) on (e12, e23, e13),
  and exact zeros on the odd blades.  Each coefficient repeats the
  arithmetic the product route ``cos(t/2) * E0 - sin(t/2) * (E123 * c)``
  does on it, zero terms included (a ``0.0 * cos`` or ``0.0 * sin`` where
  the route multiplies by a zero coefficient, and ``0.0 + c_i`` where its
  accumulator starts), so the tuple is bit-identical to that route's,
  signed zeros included.
- Negation keeps evenness, finiteness and the norm exactly.

:func:`compose` stays checked: a product of two quaternions that are unit
within tolerance can drift past it.

The three actions :func:`rotate` (q * m * ~q), :func:`reflect_line`
(a * m * a) and :func:`reflect_plane` (b * bar(m) * ~b) are each one
sandwich kernel generated by :func:`geobyte._kernels.sandwich`, with the
reversion and involution folded into its signs; they build no
intermediate multivector and are bit-identical to the two products (the
exactness argument is in :mod:`geobyte._kernels`).  Each action calls its
kernel on the coefficient tuples directly, after reading each argument's
class by :func:`geobyte.errors.instance`; so do :data:`REFLECTIONS`, the
structure permutations and :func:`geobyte.hilbert.reconstruct_vector`.
:func:`rodrigues_matrix` reads and checks its axis-angle as
:func:`quaternion_from_axis_angle` does.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from ._kernels import BLADE_GRADES, INVOLUTIONS, sandwich
from ._record import Record, _set
from .clusters import LABELS, _signed_unit, structure_element, to_structure_coords
from .errors import DomainError, instance, lookup, read_json, read_numbers, real, require_finite
from .multivector import E0, Multivector, _wrap

_UNIT_TOL = 1e-9
_GRADE_TOL = 1e-12


class AxisAngle(Record):
    """Unit rotation axis (c1, c2, c3) plus angle theta in radians
    (anticlockwise positive); floats."""

    __slots__ = ("c1", "c2", "c3", "theta")

    def to_json(self) -> dict:
        """:class:`DomainError` if any field is NaN or infinite."""
        fields = (self.c1, self.c2, self.c3, self.theta)
        c1, c2, c3, theta = require_finite(fields, "axis-angle must be finite")
        return {"axis": [c1, c2, c3], "theta": theta}

    @classmethod
    def from_json(cls, obj: dict) -> "AxisAngle":
        axis, theta = read_json(obj, ("axis", "theta"), "axis-angle")
        axis = read_numbers(axis, "axis-angle axis must be 3 finite numbers", 3)
        return cls(*axis, *read_numbers([theta], "axis-angle theta must be a finite number"))


class CayleyKlein(Record):
    """Complex pair (alpha, beta) with alpha*conj(alpha) + beta*conj(beta) = 1."""

    __slots__ = ("alpha", "beta")


class EulerRodrigues(Record):
    """Real quadruple (rho, nu, mu, lam) with unit square sum; defined by
    alpha = rho - i*nu, beta = -i*(mu + i*lam) from the Cayley-Klein pair."""

    __slots__ = ("rho", "nu", "mu", "lam")


class Quaternion(Record):
    """Even multivector (grades 0 and 2); unit ones carry rotations.
    Equal, and hashed alike, when the values are."""

    __slots__ = ("_value",)

    def __init__(self, value: Multivector, require_unit: bool = True):
        off = _off_grade_norm(instance(value, Multivector, "value"), (0, 2))
        if not (off <= _GRADE_TOL):
            raise DomainError(
                f"quaternion must have zero grade-1 and grade-3 parts, got off-grade norm {off!r}"
            )
        if require_unit:
            if not _is_unit(value):
                raise DomainError(f"quaternion is not unit, got norm {value.norm()!r}")
        else:
            require_finite(value._c, "quaternion coefficients must be finite")
        _set(self, "_value", value)

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor
        return (type(self), (self._value, False))

    @property
    def value(self) -> Multivector:
        return self._value

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(E0)

    def reversion(self) -> Multivector:
        return self._value.reversion()

    def __neg__(self) -> "Quaternion":
        return _quaternion(-self._value)

    def to_json(self) -> dict[str, float]:
        return self._value.to_json()

    def __repr__(self) -> str:
        return f"Quaternion<{self._value!r}>"


def _is_unit(value: Multivector) -> bool:
    n = value.norm()  # NaN and inf fail; n * n overflows to inf, where a power raises
    return abs(n * n - 1.0) <= _UNIT_TOL


#: kept grades -> the getter of the coefficients outside them
_OFF_GRADE = {
    kept: operator.itemgetter(*[i for i, g in enumerate(BLADE_GRADES) if g not in kept])
    for kept in ((0, 2), (1,), (2,))
}


def _off_grade_norm(value: Multivector, kept: tuple[int, ...]) -> float:
    """Norm of the coefficients of ``value`` outside the grades ``kept``;
    a NaN or inf among them fails any bound on it."""
    return math.hypot(*_OFF_GRADE[kept](value._c))


#: trusted constructor: its value is even and finite by construction, and
#: unit wherever the caller's input was
_quaternion = Quaternion._trusted


def _axis_angle(aa: AxisAngle) -> tuple[float, float, float, float]:
    """The fields (c1, c2, c3, theta) of ``aa``, each read once by
    :func:`real`; :class:`DomainError` unless the axis is unit within
    tolerance and the angle is finite."""
    what = "axis-angle fields must be real numbers"
    aa = instance(aa, AxisAngle, "aa")
    c1, c2, c3 = real(aa.c1, what), real(aa.c2, what), real(aa.c3, what)
    theta = real(aa.theta, what)
    n2 = c1 * c1 + c2 * c2 + c3 * c3  # ** would raise on overflow
    if not (abs(n2 - 1.0) <= _UNIT_TOL):
        axis = (c1, c2, c3)
        raise DomainError(f"rotation axis must be a unit vector, got {axis!r} with squared norm {n2!r}")
    if not math.isfinite(theta):
        raise DomainError(f"rotation angle must be finite, got {theta!r}")
    return c1, c2, c3, theta


def quaternion_from_axis_angle(aa: AxisAngle) -> Quaternion:
    """exp(-e123 * c * theta/2) = cos(theta/2) - e123*c*sin(theta/2)."""
    c1, c2, c3, theta = _axis_angle(aa)
    half = 0.5 * theta
    k, s = math.cos(half), math.sin(half)
    z, sz = 0.0 * k, 0.0 * s
    # e123 * c = c1 e23 - c2 e13 + c3 e12; each term repeats the product
    # route's zero arithmetic, so every zero keeps that route's sign
    return _quaternion(_wrap((
        k - sz, z - sz, z - sz, z - sz,
        z - (0.0 + c3) * s,
        z - (0.0 + c1) * s,
        z - (0.0 - c2) * s,
        z - sz,
    )))


def cayley_klein(q: Quaternion) -> CayleyKlein:
    """(alpha, beta) reading the quaternion's matrix [[a,-b*],[b,a*]].

    Under the matrix map alpha = q0 + i*q12 and beta = q13 + i*q23; this
    reproduces the closed axis-angle forms alpha = cos(t/2) - i*c3*sin(t/2),
    beta = -i*(c1 + i*c2)*sin(t/2).
    """
    v = instance(q, Quaternion, "q").value
    return CayleyKlein(
        alpha=complex(v["e0"], v["e12"]),
        beta=complex(v["e13"], v["e23"]),
    )


def euler_rodrigues(q: Quaternion) -> EulerRodrigues:
    """Real parameters (rho, nu, mu, lam) of a unit quaternion."""
    ck = cayley_klein(q)
    return EulerRodrigues(
        rho=ck.alpha.real,
        nu=-ck.alpha.imag,
        mu=-ck.beta.imag,
        lam=ck.beta.real,
    )


def quaternion_from_euler_rodrigues(er: EulerRodrigues) -> Quaternion:
    """Inverse of :func:`euler_rodrigues`."""
    er = instance(er, EulerRodrigues, "er")
    return Quaternion(
        Multivector([er.rho, 0, 0, 0, -er.nu, -er.mu, er.lam, 0])
    )


#: the three sandwiches q * m * ~q, a * m * a and b * bar(m) * ~b on
#: 8-tuples, each one generated kernel
_REV, _BAR = INVOLUTIONS["reversion"], INVOLUTIONS["grade_involution"]
_rotate = sandwich("rotate", ("q", ()), ("m", ()), ("q", _REV))
_reflect_line = sandwich("reflect_line", ("a", ()), ("m", ()), ("a", ()))
_reflect_plane = sandwich("reflect_plane", ("b", ()), ("m", _BAR), ("b", _REV))


def rotate(m: Multivector, q: Quaternion) -> Multivector:
    """Sandwich q * m * ~q; grade preserving, isometric."""
    c = instance(m, Multivector, "m")._c
    return _wrap(_rotate(instance(q, Quaternion, "q")._value._c, c))


def compose(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """Ordered product: applying the result equals applying q2 then q1.

    The product is checked to be even and finite, and to be unit when
    both factors are."""
    q1, q2 = instance(q1, Quaternion, "q1"), instance(q2, Quaternion, "q2")
    return Quaternion(
        q1.value * q2.value, require_unit=_is_unit(q1.value) and _is_unit(q2.value)
    )


def reflect_point(m: Multivector) -> Multivector:
    """Reflection in the frame origin: vectors and trivectors flip sign."""
    return instance(m, Multivector, "m").grade_involution()


def _check_mirror(mirror: Multivector, grade: int, what: str) -> None:
    off = _off_grade_norm(mirror, (grade,))
    if not (off <= _GRADE_TOL):
        raise DomainError(
            f"{what} must be a pure grade-{grade} multivector, got off-grade norm {off!r}"
        )
    if not _is_unit(mirror):
        raise DomainError(f"{what} must be unit, got norm {mirror.norm()!r}")


def reflect_line(m: Multivector, axis: Multivector) -> Multivector:
    """axis * m * axis: vector components along the line keep sign,
    perpendicular ones flip."""
    _check_mirror(instance(axis, Multivector, "axis"), 1, "reflection axis")
    return _wrap(_reflect_line(axis._c, instance(m, Multivector, "m")._c))


def reflect_plane(m: Multivector, plane: Multivector) -> Multivector:
    """Mirror across a plane: the vector component perpendicular to the
    plane flips sign.

    Implemented as plane * bar(m) * ~plane (an odd versor sandwich: the
    plane's normal n with n * bar(m) * n).  The grade involution is what
    keeps scalars fixed while vectors mirror; without it the sandwich
    degenerates to the line reflection in the normal.
    """
    _check_mirror(instance(plane, Multivector, "plane"), 2, "reflection plane")
    return _wrap(_reflect_plane(plane._c, instance(m, Multivector, "m")._c))


#: basis reflection descriptor -> reflection of a multivector in it.  The
#: basis blades are unit and of one grade by construction, so these call
#: the kernels on each blade's 8-tuple, bound once, without :func:`_check_mirror`.
REFLECTIONS: dict[str, Callable[[Multivector], Multivector]] = {
    n: lambda m, k=k, b=Multivector.basis(n)._c: _wrap(k(b, instance(m, Multivector, "m")._c))
    for k, names in ((_reflect_line, ("e1", "e2", "e3")), (_reflect_plane, ("e12", "e13", "e23")))
    for n in names
} | {"point": reflect_point}


def _build_permutations() -> dict[str, tuple[tuple[str, tuple[str, int]], ...]]:
    """Descriptor -> ((label, (target, sign)), ...) in label order, read
    off the product: each structure element is reflected and its
    structure coordinates, which are exact (the sign matrix has
    H @ H.T = 8 I), must be +-1 at one target and 0 elsewhere."""
    table = {}
    for op, apply in REFLECTIONS.items():
        rows = []
        for label in LABELS:
            k, sign = _signed_unit(to_structure_coords(apply(structure_element(label))).values)
            rows.append((label, (LABELS[k], sign)))
        table[op] = tuple(rows)
    return table


_PERMUTATIONS = _build_permutations()


def structure_permutation(op: str) -> dict[str, tuple[str, int]]:
    """Signed permutation of the structure-element labels realized by a
    basis reflection, as a new dict in label order A..Abar.

    ``op`` is a key of :data:`REFLECTIONS`: "point", a basis axis name
    ("e1".."e3") or a basis plane name ("e12"/"e23"/"e13").  The seven
    permutations are derived once, at import, by reflecting each structure
    element through the product and reading its exact structure
    coordinates; a call only copies one out of that table.

    They follow the paper's binary layer: every basis reflection
    XOR-flips the polarity triple of :data:`geobyte.clusters.POLARITIES`,
    and every sign is +1.  The point flips all three bits, the line e_i
    flips the two bits other than i, and the plane e_jk flips the bit of
    its normal; in each case the flipped axes are those the descriptor
    does not name.
    """
    return dict(lookup(_PERMUTATIONS, op, "unsupported reflection descriptor"))


def rodrigues_matrix(aa: AxisAngle):
    """Independent 3x3 rotation-matrix oracle for the same convention, as
    a numpy array; its axis-angle is checked as
    :func:`quaternion_from_axis_angle` checks it."""
    import numpy as np

    c1, c2, c3, theta = _axis_angle(aa)
    k = np.array([[0.0, -c3, c2], [c3, 0.0, -c1], [-c2, c1, 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)
