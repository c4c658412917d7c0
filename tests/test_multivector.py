"""Core algebra: blade products, involutions, grade structure."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geobyte import (
    ComplexMatrix2,
    ComplexScalar,
    Multivector,
    approx_eq,
    basis_element,
    blade_grade,
    complex_multiply,
    geometric_product,
    grade_project,
    involution,
    linear_combine,
    paravector,
    structure_element,
)
from geobyte._kernels import BLADE_NAMES, BLADE_TUPLES
from geobyte.errors import DomainError, UnknownBladeError

from conftest import random_multivector

E = {name: basis_element(name) for name in BLADE_NAMES}
P3 = paravector(3, "positive").value
N3 = paravector(3, "negative").value


def _oracle_blade_product(a, b):
    """Independent sign oracle: parity via selection sort, squares drop."""
    idx = list(a) + list(b)
    sign = 1
    order = []
    work = idx[:]
    while work:
        m = min(work)
        j = work.index(m)
        sign *= (-1) ** j
        order.append(m)
        work.pop(j)
    out = []
    for k in order:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return sign, tuple(out)


def test_basis_elements():
    assert E["e0"].coeffs.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert E["e12"]["e12"] == 1 and E["e12"].norm() == 1
    assert E["e123"]["e123"] == 1 and E["e123"].norm() == 1
    with pytest.raises(KeyError):
        Multivector.basis("e21")


def test_unknown_blade_is_a_domain_error():
    for name in ("e4", "e21", ""):
        with pytest.raises(UnknownBladeError) as info:
            basis_element(name)
        assert isinstance(info.value, DomainError) and isinstance(info.value, KeyError)
        assert str(info.value) == f"unknown basis blade {name!r}"


def test_blade_product_fixtures():
    assert E["e1"] * E["e2"] == E["e12"]
    assert E["e1"] * E["e1"] == E["e0"]
    assert (P3 * N3) == Multivector.zero()
    assert (N3 * P3) == Multivector.zero()
    assert E["e123"] * E["e1"] == E["e23"]


def test_blade_product_table_matches_oracle():
    for ta, tb in itertools.product(BLADE_TUPLES, repeat=2):
        sign, res = _oracle_blade_product(ta, tb)
        a = basis_element("e" + "".join(map(str, ta)) if ta else "e0")
        b = basis_element("e" + "".join(map(str, tb)) if tb else "e0")
        expected = sign * basis_element("e" + "".join(map(str, res)) if res else "e0")
        assert a * b == expected, (ta, tb)


def test_associativity_exhaustive():
    blades = [E[n] for n in BLADE_NAMES]
    for a, b, c in itertools.product(blades, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_identity_and_anticommutativity():
    for n in BLADE_NAMES:
        assert E["e0"] * E[n] == E[n]
        assert E[n] * E["e0"] == E[n]
    for i, j in itertools.permutations("123", 2):
        assert E[f"e{i}"] * E[f"e{j}"] == -(E[f"e{j}"] * E[f"e{i}"])


def test_pseudoscalar_central_and_imaginary():
    assert E["e123"] * E["e123"] == -E["e0"]
    for n in BLADE_NAMES:
        assert E["e123"] * E[n] == E[n] * E["e123"]


def test_linear_combine():
    assert linear_combine([(1, E["e0"])]) == E["e0"]
    assert linear_combine([(1, P3), (1, N3)]) == E["e0"]
    assert linear_combine([(1, P3), (-1, N3)]) == E["e3"]


def test_involution_fixtures():
    a = structure_element("A")
    abar = structure_element("Abar")
    assert involution("grade_involution", a) == abar
    assert involution("reversion", E["e12"]) == -E["e12"]
    assert involution("reversion", E["e0"]) == E["e0"]
    with pytest.raises(DomainError):
        involution("transpose", a)


def test_involution_properties(rng):
    for _ in range(20):
        m = random_multivector(rng)
        for kind in ("reversion", "grade_involution", "clifford_conjugation"):
            assert involution(kind, involution(kind, m)) == m
        assert (
            involution("grade_involution", involution("reversion", m))
            == involution("clifford_conjugation", m)
        )


def test_involution_grade_signs():
    signs = {
        "reversion": {0: 1, 1: 1, 2: -1, 3: -1},
        "grade_involution": {0: 1, 1: -1, 2: 1, 3: -1},
        "clifford_conjugation": {0: 1, 1: -1, 2: -1, 3: 1},
    }
    for kind, table in signs.items():
        for n in BLADE_NAMES:
            assert involution(kind, E[n]) == table[blade_grade(n)] * E[n]


def test_grade_project():
    assert grade_project(P3, 0) == 0.5 * E["e0"]
    assert grade_project(P3, 1) == 0.5 * E["e3"]
    assert grade_project(E["e12"], 1) == Multivector.zero()
    with pytest.raises(DomainError):
        grade_project(P3, 4)


def test_grade_projection_reconstructs(rng):
    for _ in range(20):
        m = random_multivector(rng)
        total = Multivector.zero()
        for k in range(4):
            total = total + grade_project(m, k)
        assert total == m


def test_complex_multiply():
    i = ComplexScalar(0, 1)
    e1p3 = E["e1"] * P3
    assert complex_multiply(i, e1p3) == 0.5 * (E["e2"] + E["e23"])
    assert complex_multiply(i, complex_multiply(i, E["e0"])) == -E["e0"]
    assert complex_multiply(ComplexScalar(1, 0), e1p3) == e1p3


def test_complex_embedding_commutes(rng):
    z = ComplexScalar(0.75, -1.5)
    for _ in range(10):
        m = random_multivector(rng)
        assert (z.embed() * m) == (m * z.embed())


def test_approx_eq(rng):
    m = random_multivector(rng)
    assert approx_eq(m, m, 0.0)
    assert not approx_eq(E["e0"], E["e1"], 0.5)
    with pytest.raises(DomainError):
        approx_eq(m, m, -1.0)


def test_constructor_checks_its_input():
    assert Multivector(range(8)) == Multivector([0.0, 1, 2, 3, 4, 5, 6, 7])
    for bad in ([1.0] * 7, [1.0] * 9, "12345678", b"12345678"):
        with pytest.raises(ValueError):
            Multivector(bad)


def test_hash_agrees_with_eq_on_signed_zero():
    zero, negative_zero = Multivector([0.0] * 8), Multivector([-0.0] + [0.0] * 7)
    assert zero == negative_zero
    assert hash(zero) == hash(negative_zero)
    assert len({zero, negative_zero}) == 1


def test_nan_is_unequal_to_itself_and_never_approx_eq():
    m = Multivector([float("nan")] + [0.0] * 7)
    assert not m == m
    assert m != m
    assert not m.approx_eq(m, math.inf)
    assert not approx_eq(Multivector.zero(), m, 1.0)


def test_division():
    assert E["e12"] / 2 == 0.5 * E["e12"]
    with pytest.raises(DomainError):
        E["e1"] / 0.0


def test_json_round_trip(rng):
    m = random_multivector(rng)
    assert Multivector.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        Multivector.from_json({"e0": 1.0})


def test_immutability():
    m = basis_element("e1")
    with pytest.raises(AttributeError):
        m._c = None
    with pytest.raises(ValueError):
        m.coeffs[0] = 5.0


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
    st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
)
def test_product_bilinearity_left(a, b):
    m, n = Multivector(a), Multivector(b)
    two = 2.0 * m
    assert (two * n).approx_eq(2.0 * (m * n), 1e-6 * max(1.0, m.norm() * n.norm()))


def test_geometric_product_alias(rng):
    m, n = random_multivector(rng), random_multivector(rng)
    assert geometric_product(m, n) == m * n


@pytest.mark.parametrize("x", [1e200, 1e-200, -1e200, 5e-324])
def test_norm_neither_overflows_nor_underflows(x):
    assert Multivector([x, 0, 0, 0, 0, 0, 0, 0]).norm() == abs(x)
    assert Multivector([0, 0, 0, 0, 0, 0, x, x]).norm() == math.hypot(x, x)


_M = Multivector([0.5, -1, 0.25, 2, 0, 1, -0.75, 3])
_X = ComplexMatrix2([[1, 2j], [3, 4]])


@pytest.mark.parametrize(
    "op",
    [
        lambda: _M + 1,
        lambda: _M * "x",
        lambda: "x" * _M,
        lambda: _M / "x",
        lambda: _M * 1j,
        lambda: _X * "x",
        lambda: "x" * _X,
    ],
    ids=["m + 1", "m * 'x'", "'x' * m", "m / 'x'", "m * 1j", "x * 'x'", "'x' * x"],
)
def test_foreign_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_foreign_operands_are_unequal():
    assert (_M == 1) is False and (_X == 1) is False
    assert (_M != 1) is True and (_X != 1) is True
