"""Validation at the boundary: the public Spinor and Quaternion
constructors check, and the values the library builds itself are
constructed without checks.  These tests license each dropped check and
count that none runs on the internal paths."""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geobyte import (
    AxisAngle,
    Multivector,
    Quaternion,
    covariant,
    hadamard_basis_vectors,
    not_gate,
    project,
    quaternion_from_axis_angle,
    spinor_from_components,
    spinor_pair,
    to_matrix,
)
from geobyte.clusters import N3, P3
from geobyte.errors import DomainError
from geobyte.hilbert import Spinor

# finite magnitudes from 1e-300 to 1e300, and both zeros
_COEFF = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
)
_MV = st.lists(_COEFF, min_size=8, max_size=8).map(Multivector)
_COMPLEX = st.builds(complex, _COEFF, _COEFF)
_IDEAL = st.sampled_from(("positive", "negative"))


def _bits(m: Multivector) -> bytes:
    return struct.pack("8d", *m._c)


def _assert_absorbs(s: Spinor, zeros_signed: bool = True) -> None:
    """value * p == value (contravariant) or p * value == value
    (covariant), bit for bit.  A product never writes -0.0; with
    ``zeros_signed`` False the value's -0.0 are compared as 0.0."""
    p = P3 if s.ideal == "positive" else N3
    absorbed = s.value * p if s.variance == "contravariant" else p * s.value
    value = s.value if zeros_signed else s.value + Multivector.zero()
    assert _bits(absorbed) == _bits(value)


# -- the dropped Spinor check: every trusted site is in its ideal ------


@given(_MV, _IDEAL, st.sampled_from(("right", "left")))
def test_project_is_absorbed_exactly(m, ideal, side):
    _assert_absorbs(project(m, ideal, side))


@given(_MV, _IDEAL)
def test_covariant_and_not_gate_are_absorbed_exactly(m, ideal):
    s = project(m, ideal, "right")
    _assert_absorbs(not_gate(s))
    # reversion negates zeros of grades 2 and 3: only the sign of zero differs
    _assert_absorbs(covariant(s), zeros_signed=False)
    _assert_absorbs(covariant(not_gate(s)), zeros_signed=False)


@given(_MV)
def test_spinor_pair_is_absorbed_exactly(m):
    q = Quaternion(m.grade_project(0) + m.grade_project(2), require_unit=False)
    pair = spinor_pair(q)
    _assert_absorbs(pair.positive)
    _assert_absorbs(pair.negative)


@given(_COMPLEX, _COMPLEX)
def test_spinor_from_components_is_absorbed_exactly(alpha, beta):
    _assert_absorbs(spinor_from_components(alpha, beta))


def test_hadamard_basis_vectors_are_absorbed_exactly():
    for s in hadamard_basis_vectors():
        _assert_absorbs(s)


# -- the dropped Quaternion check: axis-angle values are even and unit --


_AXIS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.fsum(x * x for x in v) > 1e-6
)


@given(_AXIS, st.floats(allow_nan=False, allow_infinity=False))
def test_axis_angle_quaternion_is_even_and_unit(v, theta):
    n = math.sqrt(math.fsum(x * x for x in v))
    q = quaternion_from_axis_angle(AxisAngle(v[0] / n, v[1] / n, v[2] / n, theta))
    c = q.value._c
    assert (c[1], c[2], c[3], c[7]) == (0.0, 0.0, 0.0, 0.0)
    assert abs(np.linalg.det(to_matrix(q.value).array) - 1.0) <= 1e-12


def test_axis_angle_accepts_every_axis_its_own_check_accepts():
    # ||c||^2 - 1 = -9.9999997e-10 passes the axis check; the value's
    # norm^2 - 1 = -1.00000008e-09 failed the Quaternion check before
    aa = AxisAngle(-0.5779550910359239, 0.6512193383079203, 0.49181427913334447,
                   3.142153124655593)
    assert abs(aa.c1 * aa.c1 + aa.c2 * aa.c2 + aa.c3 * aa.c3 - 1.0) <= 1e-9
    q = quaternion_from_axis_angle(aa)
    assert 1e-9 < abs(q.value.norm() ** 2 - 1.0) <= 1e-9 + 1e-15


def _grade_project_decision(v: Multivector, require_unit: bool) -> bool:
    """The Quaternion check as two grade projections, an add and norms."""
    odd = v.grade_project(1) + v.grade_project(3)
    if not (odd.norm() <= 1e-12):
        return False
    if require_unit:
        return abs(v.norm() ** 2 - 1.0) <= 1e-9
    return all(map(math.isfinite, v._c))


def _accepts(v: Multivector, require_unit: bool) -> bool:
    try:
        Quaternion(v, require_unit=require_unit)
    except DomainError:
        return False
    return True


def _ulps(x: float, k: int) -> list[float]:
    out = [x]
    for toward in (math.inf, -math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def _edge_grid() -> list[Multivector]:
    grid = []
    e0 = [0.0] * 8
    e0[0] = 1.0
    for i in (1, 2, 3, 7):  # odd norm at 1e-12 +- 1 ulp, in each odd blade
        for t in _ulps(1e-12, 1):
            c = list(e0)
            c[i] = t
            grid.append(Multivector(c))
    for a, b in ((6e-13, 8e-13), (8e-13, 6e-13)):  # and split over two
        for x in _ulps(a, 2):
            for y in _ulps(b, 2):
                grid.append(Multivector([1.0, x, 0, 0, 0, 0, 0, y]))
    for target in (1.0 + 1e-9, 1.0 - 1e-9):  # norm^2 at 1 +- 1e-9 +- ulps
        for x in _ulps(math.sqrt(target), 3):
            grid.append(Multivector([x, 0, 0, 0, 0, 0, 0, 0]))
            grid.append(Multivector([x * 0.6, 0, 0, 0, x * 0.8, 0, 0, 0]))
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(8):
            c = list(e0)
            c[i] = bad
            grid.append(Multivector(c))
    return grid


@pytest.mark.parametrize("require_unit", (True, False))
def test_one_pass_check_decides_as_the_grade_projections(require_unit):
    grid = _edge_grid()
    decisions = [_grade_project_decision(v, require_unit) for v in grid]
    assert [_accepts(v, require_unit) for v in grid] == decisions
    assert True in decisions and False in decisions


# -- counted: no check runs on an internal path ------------------------


@pytest.fixture
def checks(monkeypatch):
    """Calls of the Spinor and Quaternion invariant checks."""
    calls = Counter()
    post_init, init = Spinor.__post_init__, Quaternion.__init__

    def counted_post_init(self):
        calls["Spinor"] += 1
        post_init(self)

    def counted_init(self, *args, **kwargs):
        calls["Quaternion"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Spinor, "__post_init__", counted_post_init)
    monkeypatch.setattr(Quaternion, "__init__", counted_init)
    return calls


def test_internal_constructions_run_no_check(checks):
    aa = AxisAngle(0.0, 0.6, 0.8, 1.25)
    m = Multivector([0.5, -1.0, 2.0, 0.25, 3.0, -0.75, 1.5, 4.0])
    q = Quaternion(m.grade_project(0) + m.grade_project(2), require_unit=False)
    s = Spinor(P3, "positive", "contravariant")
    assert checks == {"Spinor": 1, "Quaternion": 1}
    for call in (
        lambda: project(m, "positive", "right"),
        lambda: project(m, "negative", "left"),
        lambda: spinor_pair(q),
        lambda: covariant(s),
        lambda: not_gate(s),
        lambda: spinor_from_components(0.6 + 0.8j, -0.5j),
        hadamard_basis_vectors,
        lambda: quaternion_from_axis_angle(aa),
        lambda: -q,
    ):
        checks.clear()
        call()
        assert checks == {}


def test_public_constructors_check_once(checks):
    Spinor(P3, "positive", "contravariant")
    assert checks == {"Spinor": 1}
    checks.clear()
    Quaternion(Multivector.basis("e0"))
    assert checks == {"Quaternion": 1}
