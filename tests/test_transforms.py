"""Rotations, parameterizations, reflections, and the signed
permutations reflections induce on the structure elements."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geobyte import (
    AxisAngle,
    Multivector,
    Quaternion,
    basis_element,
    cayley_klein,
    compose,
    euler_rodrigues,
    quaternion_from_axis_angle,
    quaternion_from_euler_rodrigues,
    reflect_line,
    reflect_plane,
    reflect_point,
    rodrigues_matrix,
    rotate,
    structure_element,
    structure_permutation,
    to_matrix,
)
from geobyte._kernels import BLADE_NAMES
from geobyte.clusters import LABELS, POLARITIES
from geobyte.errors import DomainError
from geobyte.transforms import REFLECTIONS as BASIS_REFLECTIONS

from conftest import random_multivector, random_unit_quaternion

E = {name: basis_element(name) for name in BLADE_NAMES}


def _random_axis_angle(rng) -> AxisAngle:
    v = rng.standard_normal(3)
    v /= np.sqrt(np.dot(v, v))
    return AxisAngle(v[0], v[1], v[2], rng.uniform(-2 * math.pi, 2 * math.pi))


def _vector(m: Multivector) -> np.ndarray:
    return np.array([m["e1"], m["e2"], m["e3"]])


# -- quaternion construction and parameters ---------------------------


def test_quaternion_validation():
    with pytest.raises(DomainError):
        Quaternion(E["e1"])
    with pytest.raises(DomainError):
        Quaternion(2.0 * E["e0"])
    Quaternion(2.0 * E["e0"], require_unit=False)
    assert Quaternion.identity().value == E["e0"]


def test_axis_angle_fixtures():
    assert quaternion_from_axis_angle(AxisAngle(0, 0, 1, 0.0)).value == E["e0"]
    q = quaternion_from_axis_angle(AxisAngle(0, 0, 1, math.pi))
    assert q.value.approx_eq(-E["e12"], 1e-15)
    theta = math.radians(130.0)
    q = quaternion_from_axis_angle(AxisAngle(1, 0, 0, theta))
    expected = math.cos(theta / 2) * E["e0"] - math.sin(theta / 2) * E["e23"]
    assert q.value.approx_eq(expected, 1e-15)
    with pytest.raises(DomainError):
        quaternion_from_axis_angle(AxisAngle(1, 1, 0, 0.1))


def test_non_finite_rotations_rejected():
    nan, inf = float("nan"), float("inf")
    for aa in (
        AxisAngle(nan, 0, 1, 0.5),
        AxisAngle(0, 0, 1, inf),
        AxisAngle(0, 0, 1, -inf),
        AxisAngle(0, 0, 1, nan),
        AxisAngle(1e200, 0, 0, 0.5),  # the squared norm overflows
    ):
        with pytest.raises(DomainError):
            quaternion_from_axis_angle(aa)
    all_nan = Multivector([nan] * 8)
    for bad in (all_nan, nan * E["e0"]):
        with pytest.raises(DomainError):
            Quaternion(bad)
    for bad in (all_nan, Multivector([inf, 0, 0, 0, 0, 0, 0, 0]),
                Multivector([0, 0, 0, 0, -inf, 0, 0, 0])):
        with pytest.raises(DomainError):
            Quaternion(bad, require_unit=False)
    with pytest.raises(DomainError):
        reflect_line(E["e1"], nan * E["e1"])
    with pytest.raises(DomainError):
        reflect_plane(E["e1"], nan * E["e12"])


def test_axis_angle_json():
    aa = AxisAngle(0.0, 0.6, 0.8, 1.25)
    assert AxisAngle.from_json(aa.to_json()) == aa


def test_cayley_klein_fixtures():
    assert cayley_klein(Quaternion.identity()) == __import__(
        "geobyte"
    ).CayleyKlein(alpha=complex(1, 0), beta=complex(0, 0))
    theta = 0.7
    ck = cayley_klein(quaternion_from_axis_angle(AxisAngle(0, 0, 1, theta)))
    assert abs(ck.alpha - complex(math.cos(theta / 2), -math.sin(theta / 2))) < 1e-15
    assert abs(ck.beta) < 1e-15
    ck = cayley_klein(quaternion_from_axis_angle(AxisAngle(1, 0, 0, theta)))
    assert abs(ck.alpha - math.cos(theta / 2)) < 1e-15
    assert abs(ck.beta - complex(0, -math.sin(theta / 2))) < 1e-15


def test_cayley_klein_normalization(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        ck = cayley_klein(q)
        assert abs(abs(ck.alpha) ** 2 + abs(ck.beta) ** 2 - 1.0) < 1e-12


def test_euler_rodrigues_fixtures():
    er = euler_rodrigues(Quaternion.identity())
    assert (er.rho, er.nu, er.mu, er.lam) == (1.0, 0.0, 0.0, 0.0)
    theta = 1.1
    er = euler_rodrigues(quaternion_from_axis_angle(AxisAngle(0, 0, 1, theta)))
    assert abs(er.rho - math.cos(theta / 2)) < 1e-15
    assert abs(er.nu - math.sin(theta / 2)) < 1e-15
    assert abs(er.mu) < 1e-15 and abs(er.lam) < 1e-15


def test_euler_rodrigues_properties(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        er = euler_rodrigues(q)
        ck = cayley_klein(q)
        # alpha = rho - i*nu, beta = -i*(mu + i*lam)
        assert abs(ck.alpha - complex(er.rho, -er.nu)) < 1e-15
        assert abs(ck.beta - complex(er.lam, -er.mu)) < 1e-15
        assert abs(er.rho**2 + er.nu**2 + er.mu**2 + er.lam**2 - 1.0) < 1e-12
        back = quaternion_from_euler_rodrigues(er)
        assert back.value == q.value


# -- rotation ----------------------------------------------------------


def test_rotation_orientation_fixture():
    q = quaternion_from_axis_angle(AxisAngle(0, 0, 1, math.pi / 2))
    assert rotate(E["e1"], q).approx_eq(E["e2"], 1e-15)
    assert rotate(E["e3"], Quaternion.identity()) == E["e3"]
    assert rotate(E["e0"], q).approx_eq(E["e0"], 1e-15)


def test_rotation_matches_rodrigues_oracle(rng):
    for _ in range(120):
        aa = _random_axis_angle(rng)
        q = quaternion_from_axis_angle(aa)
        r = rodrigues_matrix(aa)
        v = rng.standard_normal(3)
        m = Multivector([0, v[0], v[1], v[2], 0, 0, 0, 0])
        assert np.max(np.abs(_vector(rotate(m, q)) - r @ v)) < 1e-12


def test_rotation_isometry(rng):
    for _ in range(100):
        q = random_unit_quaternion(rng)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        mu = Multivector([0, *u, 0, 0, 0, 0])
        mv = Multivector([0, *v, 0, 0, 0, 0])
        before = (mu * mv)["e0"]
        after = (rotate(mu, q) * rotate(mv, q))["e0"]
        assert abs(before - after) < 1e-12


def test_rotation_grade_preserving(rng):
    for _ in range(20):
        q = random_unit_quaternion(rng)
        for k in range(4):
            m = random_multivector(rng)
            mk = m.grade_project(k)
            out = rotate(mk, q)
            off = out - out.grade_project(k)
            assert off.norm() < 1e-14 * max(1.0, mk.norm())


def test_double_cover(rng):
    q = random_unit_quaternion(rng)
    for name in BLADE_NAMES:
        assert rotate(E[name], q) == rotate(E[name], -q)


def test_compose():
    quarter = quaternion_from_axis_angle(AxisAngle(0, 0, 1, math.pi / 2))
    half = quaternion_from_axis_angle(AxisAngle(0, 0, 1, math.pi))
    assert compose(quarter, quarter).value.approx_eq(half.value, 1e-15)
    assert compose(Quaternion.identity(), quarter).value == quarter.value
    qx = quaternion_from_axis_angle(AxisAngle(1, 0, 0, math.pi / 2))
    qy = quaternion_from_axis_angle(AxisAngle(0, 1, 0, math.pi / 2))
    assert not compose(qx, qy).value.approx_eq(compose(qy, qx).value, 1e-6)


def test_non_unit_quaternions_negate_and_compose():
    q = Quaternion(2.0 * E["e0"] + E["e12"], require_unit=False)
    assert (-q).value == -q.value
    assert compose(q, q).value == q.value * q.value
    assert compose(q, Quaternion.identity()).value == q.value
    big = Quaternion(1e200 * E["e0"], require_unit=False)
    with pytest.raises(DomainError):  # finiteness is checked always
        compose(big, big)


def test_compose_of_unit_quaternions_is_checked_for_unit_norm():
    # each factor is unit within tolerance, their product is not
    q = Quaternion(math.sqrt(1.0 + 0.9e-9) * E["e0"])
    with pytest.raises(DomainError, match="not unit"):
        compose(q, q)


def test_compose_matches_sequential_rotation(rng):
    q1, q2 = random_unit_quaternion(rng), random_unit_quaternion(rng)
    m = random_multivector(rng)
    assert rotate(m, compose(q1, q2)).approx_eq(rotate(rotate(m, q2), q1), 1e-12)


# -- reflections -------------------------------------------------------


def test_reflect_point():
    assert reflect_point(E["e1"]) == -E["e1"]
    assert reflect_point(E["e12"]) == E["e12"]
    assert reflect_point(E["e123"]) == -E["e123"]
    assert reflect_point(structure_element("A")) == structure_element("Abar")


def test_reflect_line_vector_rule(rng):
    a = rng.standard_normal(3)
    m = Multivector([0, *a, 0, 0, 0, 0])
    out = reflect_line(m, E["e1"])
    assert np.allclose(_vector(out), [a[0], -a[1], -a[2]], atol=1e-15)
    with pytest.raises(DomainError):
        reflect_line(m, E["e12"])
    with pytest.raises(DomainError):
        reflect_line(m, 2.0 * E["e1"])


def test_reflect_plane_vector_rule(rng):
    a = rng.standard_normal(3)
    m = Multivector([0, *a, 0, 0, 0, 0])
    out = reflect_plane(m, E["e23"])
    assert np.allclose(_vector(out), [-a[0], a[1], a[2]], atol=1e-15)
    with pytest.raises(DomainError):
        reflect_plane(m, E["e1"])


def test_reflection_structure_relations():
    # frozen letter relations among the structure elements
    relations = [
        ("A", "line", "e1", "Bbar"),
        ("A", "line", "e2", "Cbar"),
        ("A", "line", "e3", "Dbar"),
        ("B", "line", "e3", "C"),
        ("A", "plane", "e23", "B"),
        ("A", "plane", "e13", "C"),
        ("A", "plane", "e12", "D"),
        ("B", "plane", "e12", "Cbar"),
    ]
    for src, kind, mirror, dst in relations:
        s = structure_element(src)
        if kind == "line":
            out = reflect_line(s, E[mirror])
        else:
            out = reflect_plane(s, E[mirror])
        assert out.approx_eq(structure_element(dst), 1e-15), (src, kind, mirror)


def test_reflections_involutive(rng):
    m = random_multivector(rng)
    for axis in ("e1", "e2", "e3"):
        assert reflect_line(reflect_line(m, E[axis]), E[axis]) == m
    for plane in ("e12", "e23", "e13"):
        assert reflect_plane(reflect_plane(m, E[plane]), E[plane]) == m
    assert reflect_point(reflect_point(m)) == m


def test_structure_permutation():
    perm = structure_permutation("point")
    for label, (target, sign) in perm.items():
        assert sign == 1
        assert target == (label[:-3] if label.endswith("bar") else label + "bar")
    perm = structure_permutation("e23")
    assert perm["A"] == ("B", 1)
    assert perm["B"] == ("A", 1)
    # applying the permutation twice gives the identity
    for label, (target, sign) in perm.items():
        target2, sign2 = perm[target]
        assert target2 == label and sign * sign2 == 1
    with pytest.raises(DomainError):
        structure_permutation("e21")


def test_structure_permutation_line():
    perm = structure_permutation("e1")
    assert perm["A"] == ("Bbar", 1)
    assert perm["B"] == ("Abar", 1)


@pytest.mark.parametrize("op", ["point", "e1", "e2", "e3", "e12", "e13", "e23"])
def test_structure_permutation_bit_rule(op):
    # the flipped polarity bits are the axes the descriptor does not name:
    # all three for the point, the two other than i for the line e_i, the
    # normal for the plane e_jk
    named = set() if op == "point" else {int(ch) for ch in op[1:]}
    mask = tuple(1 if axis in named else -1 for axis in (1, 2, 3))
    by_polarity = {p: label for label, p in POLARITIES.items()}
    perm = structure_permutation(op)
    assert list(perm) == list(LABELS)
    for label, (target, sign) in perm.items():
        image = tuple(p * f for p, f in zip(POLARITIES[label], mask))
        assert (target, sign) == (by_polarity[image], 1), (op, label)


def test_structure_permutation_returns_a_fresh_dict():
    expected = list(structure_permutation("e13").items())
    first = structure_permutation("e13")
    first["A"] = ("A", -1)
    del first["B"]
    structure_permutation("e13").clear()
    assert list(structure_permutation("e13").items()) == expected


REFLECTIONS = {
    "point": reflect_point,
    **{n: (lambda m, n=n: reflect_line(m, E[n])) for n in ("e1", "e2", "e3")},
    **{n: (lambda m, n=n: reflect_plane(m, E[n])) for n in ("e12", "e23", "e13")},
}


@pytest.mark.parametrize("op", sorted(REFLECTIONS))
def test_structure_permutation_matrix_oracle(op):
    # every label's reflected image equals the claimed signed target,
    # exactly, in the 2x2 matrix representation
    perm = structure_permutation(op)
    assert set(perm) == set(LABELS)
    assert sorted(target for target, _ in perm.values()) == sorted(LABELS)
    for label, (target, sign) in perm.items():
        assert sign in (1, -1)
        image = REFLECTIONS[op](structure_element(label))
        assert to_matrix(image) == sign * to_matrix(structure_element(target)), (op, label)


def test_basis_reflections_skip_the_mirror_check_and_keep_every_bit(rng):
    # the table calls the sandwiches directly; the public route checks first
    for m in [random_multivector(rng) for _ in range(200)] + list(E.values()):
        for op, reflect in REFLECTIONS.items():
            want = struct.pack("8d", *reflect(m)._c)
            assert struct.pack("8d", *BASIS_REFLECTIONS[op](m)._c) == want, (op, m)


# -- the closed-form axis-angle quaternion --------------------------------


def _product_route(aa: AxisAngle) -> Multivector:
    """Reference: cos(theta/2) * E0 - sin(theta/2) * (E123 * c) through
    the geometric product, as quaternion_from_axis_angle once computed it."""
    half = 0.5 * aa.theta
    c = Multivector([0.0, aa.c1, aa.c2, aa.c3, 0.0, 0.0, 0.0, 0.0])
    return math.cos(half) * E["e0"] - math.sin(half) * (E["e123"] * c)


def _assert_same_bits(aa: AxisAngle) -> None:
    got = quaternion_from_axis_angle(aa).value._c
    assert struct.pack("8d", *got) == struct.pack("8d", *_product_route(aa)._c), aa


_SPECIAL_THETAS = (0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi)


@pytest.mark.parametrize("theta", _SPECIAL_THETAS)
def test_axis_angle_quaternion_is_the_product_route_bit_for_bit(theta):
    # every basis axis, both directions, with each zero component +0.0 or -0.0
    for i in range(3):
        for one in (1.0, -1.0):
            for zeros in itertools.product((0.0, -0.0), repeat=2):
                axis = list(zeros)
                axis.insert(i, one)
                _assert_same_bits(AxisAngle(*axis, theta))
    _assert_same_bits(AxisAngle(0, 0.6, -0.8, theta))
    _assert_same_bits(AxisAngle(0, 0, 1, theta))  # integer components


_signed_zero = st.sampled_from((0.0, -0.0))


@st.composite
def _axis_angles(draw):
    v = [draw(st.one_of(_signed_zero, st.floats(-1.0, 1.0))) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    assume(n > 0.1)
    theta = draw(st.one_of(st.sampled_from(_SPECIAL_THETAS), st.floats(-1e300, 1e300)))
    return AxisAngle(*(x / n for x in v), theta)


@settings(max_examples=500, deadline=None)
@given(_axis_angles())
def test_axis_angle_quaternion_matches_the_product_route(aa):
    _assert_same_bits(aa)


def test_unit_checks_quote_a_finite_norm_and_never_overflow():
    with pytest.raises(DomainError) as err:
        Quaternion(1e200 * E["e0"])
    assert "1e+200" in str(err.value)
    with pytest.raises(DomainError, match="got norm 1e-200"):
        Quaternion(1e-200 * E["e0"])
    with pytest.raises(DomainError, match="reflection axis must be unit"):
        reflect_line(E["e1"], 1e200 * E["e1"])
    with pytest.raises(DomainError, match="reflection plane must be unit"):
        reflect_plane(E["e1"], 1e200 * E["e12"])
    with pytest.raises(DomainError, match="pure grade-1"):
        reflect_line(E["e1"], E["e1"] + 1e200 * E["e2"] + 1e200 * E["e12"])


@pytest.mark.parametrize("aa", [
    AxisAngle(1e200, 0, 1, 0.5),
    AxisAngle(math.inf, 0, 1, 0.5),
    AxisAngle(math.nan, 0, 1, 0.5),
    AxisAngle(3, 0, 0, 0.5),
    AxisAngle(0, 0, 1, math.inf),
])
def test_rodrigues_matrix_reads_its_axis_angle_as_the_quaternion_route_does(aa):
    # a huge axis once made numpy warn, and a non-unit one gave a non-rotation
    with pytest.raises(DomainError) as want:
        quaternion_from_axis_angle(aa)
    with pytest.raises(DomainError) as got:
        rodrigues_matrix(aa)
    assert str(got.value) == str(want.value)
